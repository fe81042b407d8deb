// Package lzr simulates LZR (Izhikevich et al., USENIX Security 2021), the
// service fingerprinting layer of the GPS pipeline. LZR adopts the TCP
// connection ZMap opened, filters out middleboxes that acknowledge every
// port without speaking a protocol, and identifies the protocol actually
// running on the port — a necessary step when scanning unassigned ports,
// where the port number says nothing about the service.
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

var statusNames = [...]string{"service", "middlebox", "unresponsive"}

// String names the status.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "unknown"
}

// Result is LZR's verdict on one (IP, port).
type Result struct {
	IP     asndb.IP
	Port   uint16
	Status Status
	Proto  features.Protocol
	// Handshakes is how many connections/triggers the waterfall needed
	// before identifying the service; contributes to bandwidth overhead.
	// Server-first protocols always identify in one.
	Handshakes int
	// BytesTx/BytesRx are the application-layer bytes exchanged during
	// fingerprinting.
	BytesTx int
	BytesRx int
	// Banner is the identifying response data (nil for silent services).
	Banner []byte
}

// Source is the view of the network LZR needs; *netmodel.Universe
// implements it.
type Source interface {
	HostAt(ip asndb.IP) (*netmodel.Host, bool)
}

// Fingerprinter runs LZR's identification waterfall.
type Fingerprinter struct {
	src Source
}

// New creates a fingerprinter over a source.
func New(src Source) *Fingerprinter { return &Fingerprinter{src: src} }

// assigned is the protocol conventionally assigned to well-known ports;
// LZR tries its trigger first on those ports.
var assigned = map[uint16]features.Protocol{
	21: features.ProtocolFTP, 22: features.ProtocolSSH, 23: features.ProtocolTelnet,
	25: features.ProtocolSMTP, 80: features.ProtocolHTTP, 110: features.ProtocolPOP3,
	143: features.ProtocolIMAP, 443: features.ProtocolTLS, 465: features.ProtocolTLS,
	587: features.ProtocolSMTP, 623: features.ProtocolIPMI, 993: features.ProtocolTLS,
	995: features.ProtocolTLS, 1433: features.ProtocolMSSQL, 1723: features.ProtocolPPTP,
	2323: features.ProtocolTelnet, 3306: features.ProtocolMySQL, 5900: features.ProtocolVNC,
	7547: features.ProtocolCWMP, 8080: features.ProtocolHTTP, 8443: features.ProtocolTLS,
	11211: features.ProtocolMemcached,
}

// Fingerprint identifies the service behind an acknowledged (ip, port) by
// exchanging simulated application-layer bytes: first it waits for a
// server-first banner; if none arrives it walks the client-first trigger
// waterfall (the port's assigned protocol first) and matches responses.
func (f *Fingerprinter) Fingerprint(ip asndb.IP, port uint16) Result {
	host, ok := f.src.HostAt(ip)
	if !ok {
		return Result{IP: ip, Port: port, Status: StatusUnresponsive}
	}
	svc, ok := host.ServiceAt(port)
	if !ok {
		if host.Middlebox {
			// Acknowledged the SYN, sent no banner, and resets when
			// LZR pushes data: the middlebox signature.
			first := clientTriggers[0]
			return Result{IP: ip, Port: port, Status: StatusMiddlebox,
				Handshakes: 1, BytesTx: len(first.payload)}
		}
		return Result{IP: ip, Port: port, Status: StatusUnresponsive}
	}

	res := Result{IP: ip, Port: port, Status: StatusService, Proto: features.ProtocolUnknown}

	// Server-first: the banner arrives on the first connection, whatever
	// the port number — this is why LZR can fingerprint unassigned
	// ports cheaply.
	if serverFirst[svc.Proto] {
		banner := Banner(svc)
		res.Handshakes = 1
		res.BytesRx = len(banner)
		res.Banner = banner
		if p, okID := identify(banner); okID {
			res.Proto = p
		}
		return res
	}

	// Client-first waterfall, assigned protocol first.
	order := clientTriggers
	if want, okA := assigned[port]; okA {
		reordered := make([]trigger, 0, len(clientTriggers))
		for _, tr := range clientTriggers {
			if tr.proto == want {
				reordered = append(reordered, tr)
			}
		}
		for _, tr := range clientTriggers {
			if tr.proto != want {
				reordered = append(reordered, tr)
			}
		}
		order = reordered
	}
	for i, tr := range order {
		res.Handshakes = i + 1
		res.BytesTx += len(tr.payload)
		resp := respondTo(svc, tr)
		if len(resp) == 0 {
			continue
		}
		res.BytesRx += len(resp)
		if p, okID := identify(resp); okID {
			res.Proto = p
			res.Banner = resp
			return res
		}
	}
	// Nothing matched: an acknowledged but unidentified service. LZR
	// keeps it (real services do run unknown protocols) with
	// ProtocolUnknown.
	res.Handshakes = len(order)
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
