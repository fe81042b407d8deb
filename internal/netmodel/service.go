// Package netmodel implements a deterministic synthetic IPv4 Internet used
// as the ground-truth substrate for GPS experiments. The real paper scans
// the live Internet with ZMap/LZR/ZGrab and evaluates against Censys; this
// package stands in for all of that data with a generator that reproduces
// the statistical structure GPS's predictions depend on (§4 of the paper):
//
//   - Port usage is correlated on hosts: device fleets are "manufactured"
//     with a fixed port set, so the presence of one port predicts others.
//   - Application-layer banners identify the manufacturer/OS/purpose of a
//     host and therefore its remaining ports.
//   - Services cluster in networks: fleets concentrate in a small number of
//     ASNs and /16 subnetworks.
//   - A long tail of services lives on unassigned ports, both from vendor
//     model-specific ports and from unpredictable port forwarding.
//   - Middleboxes and "pseudo services" pollute naive scans (Appendix B).
package netmodel

import (
	"cmp"
	"fmt"
	"slices"

	"gps/internal/asndb"
	"gps/internal/features"
)

// Service is one (port, protocol) endpoint on a host, with its
// application-layer feature values (banners, certificates, and so on).
type Service struct {
	Port  uint16
	Proto features.Protocol
	// Feats holds the application-layer features a full L7 handshake
	// reveals. The seed snapshots and zgrab.Grab both hand out this very
	// set, shared with the universe; it must not be mutated.
	// Network-layer features are derived from the host's IP, not stored
	// here.
	Feats features.Set
	// TTL is the IP time-to-live observed on responses. Port-forwarded
	// services traverse an extra hop, so their TTL differs from the
	// host's other services; the paper uses this to estimate that 55% of
	// services on uncommon ports are forwarded (§7).
	TTL uint8
	// Forwarded marks services that a router forwards to an internal
	// device on an effectively random external port. These are the
	// fundamentally unpredictable services of §7.
	Forwarded bool
	// Pseudo marks a pseudo-service: a response that completes a
	// handshake but serves no real content (Appendix B). Pseudo services
	// must be filtered from seed sets or GPS learns junk patterns.
	Pseudo bool
}

// Key identifies a service globally as an (IP, port) pair, the unit of
// discovery throughout the paper ("#(IP, p)" in Equations 1-2).
type Key struct {
	IP   asndb.IP
	Port uint16
}

// String renders "ip:port".
func (k Key) String() string { return fmt.Sprintf("%s:%d", k.IP, k.Port) }

// Compare orders keys by (IP, port): the canonical order of every
// inventory format, snapshot, delta and event list, and the tie-break
// wherever services are ranked by something else first.
func (k Key) Compare(o Key) int {
	// One integer comparison with the IP as the high bits, small enough
	// to inline into the sorts that call it a few million times an epoch.
	return cmp.Compare(k.bits(), o.bits())
}

// bits is the key as the 48-bit integer IP<<16 | port, whose numeric
// order is Compare order.
func (k Key) bits() uint64 { return uint64(k.IP)<<16 | uint64(k.Port) }

// Pair is one entry of a Key-indexed map.
type Pair[V any] struct {
	Key   Key
	Value V
}

// SortedPairs returns the entries of m in Compare order: one map walk
// collects them, then an LSD radix sort orders them on the 48-bit key.
// Every canonical walk of an inventory — a snapshot build, a delta's
// merge-join, a GPSV write — is this one call, with no lookup per key.
func SortedPairs[V any](m map[Key]V) []Pair[V] {
	ps := make([]Pair[V], 0, len(m))
	for k, v := range m {
		ps = append(ps, Pair[V]{k, v})
	}
	if len(ps) == 0 {
		return ps
	}
	return radixSort(ps, make([]Pair[V], len(ps)), keyDigits)
}

// keyDigits is how many 8-bit digits a 48-bit key has; the low
// portDigits of them are the port. Byte digits keep every count array on
// the stack; wider ones would spill to the heap on each call.
const (
	keyDigits  = 6
	portDigits = 2
)

// radixSort sorts ps stably on the low digits bytes of the key, least
// significant byte first, using scratch (len(ps) long) as the other
// buffer, and returns whichever of the two holds the result. With every
// digit (keyDigits) the order is exactly Compare order; with portDigits
// it is port order, ties kept in input order. One counting pass fills
// every digit's histogram; a digit that every key shares (the high bytes
// of a universe confined to a few networks, say) costs no pass.
func radixSort[V any](ps, scratch []Pair[V], digits int) []Pair[V] {
	var counts [keyDigits][256]int
	cs := counts[:digits]
	for i := range ps {
		b := ps[i].Key.bits()
		for d := range cs {
			cs[d][byte(b>>(8*d))]++
		}
	}
	src, dst := ps, scratch
	for d := range cs {
		shift := 8 * d
		c := &cs[d]
		if c[byte(src[0].Key.bits()>>shift)] == len(src) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, p := range src {
			digit := byte(p.Key.bits() >> shift)
			dst[c[digit]] = p
			c[digit]++
		}
		src, dst = dst, src
	}
	return src
}

// Host is one responsive IPv4 address and everything it serves.
type Host struct {
	IP       asndb.IP
	ASN      asndb.ASN
	Profile  string    // generator profile name, for debugging and analysis
	services []Service // ascending by port, at most one per port

	// pseudoLo/pseudoHi bound a contiguous block of pseudo-service
	// ports (inclusive); pseudoTmpl is the shared response. Hosts
	// serving pseudo services respond identically on every port in the
	// block, which is how Censys-style "pseudo service" hosts behave.
	pseudoLo, pseudoHi uint16
	pseudoTmpl         *Service

	// Middlebox marks hosts (e.g., security appliances) that complete a
	// SYN handshake on every port but never speak a real protocol. LZR
	// filters these before ZGrab runs.
	Middlebox bool
}

// NewHost creates an empty host.
func NewHost(ip asndb.IP, asn asndb.ASN, profile string) *Host {
	return &Host{IP: ip, ASN: asn, Profile: profile}
}

// AddService attaches a service; a second service on the same port
// replaces the first.
func (h *Host) AddService(s Service) {
	if i, found := h.find(s.Port); found {
		h.services[i] = s
	} else {
		h.services = slices.Insert(h.services, i, s)
	}
}

// find binary-searches the services for port.
func (h *Host) find(port uint16) (int, bool) {
	lo, hi := 0, len(h.services)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); h.services[m].Port < port {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(h.services) && h.services[lo].Port == port
}

// SetPseudoBlock makes the host serve the same pseudo service on every
// port in [lo, hi].
func (h *Host) SetPseudoBlock(lo, hi uint16, tmpl *Service) {
	h.pseudoLo, h.pseudoHi, h.pseudoTmpl = lo, hi, tmpl
}

// PseudoBlock returns the pseudo block bounds and whether one is set.
func (h *Host) PseudoBlock() (lo, hi uint16, ok bool) {
	return h.pseudoLo, h.pseudoHi, h.pseudoTmpl != nil
}

// ServiceAt returns the service on a port. Pseudo blocks synthesize a
// service on demand so that a block of 1,000+ ports costs one template.
// Callers must not modify the service.
func (h *Host) ServiceAt(port uint16) (*Service, bool) {
	if i, ok := h.find(port); ok {
		return &h.services[i], true
	}
	if h.inPseudoBlock(port) {
		s := *h.pseudoTmpl
		s.Port = port
		return &s, true
	}
	return nil, false
}

// inPseudoBlock reports whether the host's pseudo block covers port.
func (h *Host) inPseudoBlock(port uint16) bool {
	return h.pseudoTmpl != nil && port >= h.pseudoLo && port <= h.pseudoHi
}

// Responsive reports whether a SYN to the port would be answered.
// Middleboxes acknowledge everything.
func (h *Host) Responsive(port uint16) bool {
	if h.Middlebox {
		return true
	}
	_, ok := h.ServiceAt(port)
	return ok
}

// NumServices counts the host's services including any pseudo block.
func (h *Host) NumServices() int {
	n := len(h.services)
	if h.pseudoTmpl != nil {
		n += int(h.pseudoHi) - int(h.pseudoLo) + 1
	}
	return n
}

// Services returns the host's explicit (non-pseudo-block) services in
// ascending port order. It only reads, so it is safe for concurrent use;
// callers must not modify the slice.
func (h *Host) Services() []Service { return h.services }
