// Package lzr stands in for LZR (Izhikevich et al., USENIX Security 2021),
// the service fingerprinting layer of the GPS pipeline. LZR adopts the TCP
// connection ZMap opened, filters out middleboxes that acknowledge every
// port without speaking a protocol, and identifies the protocol actually
// running on the port — a necessary step when scanning unassigned ports,
// where the port number says nothing about the service. The paper drives
// LZR as an external tool; what is reproduced here is its verdict, not
// its wire behaviour, so a fingerprint classifies straight from the
// universe's host and service lookup.
package lzr

import (
	"gps/internal/asndb"
	"gps/internal/features"
	"gps/internal/netmodel"
)

// Status classifies what LZR found behind a SYN-ACK.
type Status uint8

// Fingerprinting outcomes.
const (
	// StatusService marks a real service that spoke a recognizable or
	// unknown-but-data-bearing protocol.
	StatusService Status = iota
	// StatusMiddlebox marks a middlebox: the handshake completed but the
	// peer never sent data and tore down on push. Filtered.
	StatusMiddlebox
	// StatusUnresponsive marks a peer that stopped responding after the
	// handshake (e.g., the host disappeared between probe and grab).
	StatusUnresponsive
)

// Result is LZR's verdict on one (IP, port).
type Result struct {
	IP     asndb.IP
	Port   uint16
	Status Status
	Proto  features.Protocol
}

// Source is the view of the network LZR needs; *netmodel.Universe
// implements it.
type Source interface {
	HostAt(ip asndb.IP) (*netmodel.Host, bool)
}

// Fingerprinter classifies acknowledged (IP, port) pairs.
type Fingerprinter struct {
	src Source
}

// New creates a fingerprinter over a source.
func New(src Source) *Fingerprinter { return &Fingerprinter{src: src} }

// Fingerprint classifies what is behind an acknowledged (ip, port): a
// service, with the protocol it speaks whatever the port number; a
// middlebox, which acknowledged the SYN but serves nothing; or nothing
// (the host or service disappeared between probe and fingerprint).
func (f *Fingerprinter) Fingerprint(ip asndb.IP, port uint16) Result {
	res := Result{IP: ip, Port: port, Status: StatusUnresponsive}
	host, ok := f.src.HostAt(ip)
	if !ok {
		return res
	}
	if svc, ok := host.ServiceAt(port); ok {
		res.Status, res.Proto = StatusService, svc.Proto
	} else if host.Middlebox {
		res.Status = StatusMiddlebox
	}
	return res
}

// MaxRealServicesPerHost is the Appendix B pseudo-service threshold: a host
// serving more than this many services is considered a pseudo-service host
// and all its services are filtered. The paper measures this rule at 100%
// recall and 99% precision.
const MaxRealServicesPerHost = 10

// IsPseudoHost applies the Appendix B rule to a host.
func IsPseudoHost(h *netmodel.Host) bool {
	return h.NumServices() > MaxRealServicesPerHost
}
