// Package zgrab stands in for ZGrab, the application-layer handshake tool
// at the end of the GPS scanning pipeline. For every service LZR
// classifies as real, ZGrab collects the application-layer features of
// Table 1 (banners, TLS certificates, SSH keys, version strings). The
// paper drives ZGrab as an external tool; what is reproduced here is what
// it observes, not its wire behaviour, so a grab reads the service's
// features off the universe exactly as the seed path
// (dataset.SnapshotLZR) does.
package zgrab

import (
	"gps/internal/asndb"
	"gps/internal/features"
	"gps/internal/netmodel"
)

// Grab is what one full L7 handshake observes.
type Grab struct {
	IP    asndb.IP
	Port  uint16
	Proto features.Protocol
	// Feats is the service's application-layer feature set, shared with
	// the universe; it must not be mutated.
	Feats features.Set
	TTL   uint8
}

// Source is the network view ZGrab needs; *netmodel.Universe implements it.
type Source interface {
	ServiceAt(ip asndb.IP, port uint16) (*netmodel.Service, bool)
}

// Grabber performs L7 handshakes against a source.
type Grabber struct {
	src Source
}

// New creates a grabber.
func New(src Source) *Grabber { return &Grabber{src: src} }

// Grab observes the service at (ip, port). ok is false when the service
// vanished or never existed.
func (g *Grabber) Grab(ip asndb.IP, port uint16) (Grab, bool) {
	svc, ok := g.src.ServiceAt(ip, port)
	if !ok {
		return Grab{}, false
	}
	return Grab{IP: ip, Port: port, Proto: svc.Proto, Feats: svc.Feats, TTL: svc.TTL}, true
}
