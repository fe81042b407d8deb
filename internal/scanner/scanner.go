package scanner

import (
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/asndb"
)

// ProbeBytes is the on-wire size of one SYN probe frame (Ethernet + IPv4 +
// TCP), used to convert probe counts to link bandwidth.
const ProbeBytes = 84

// Responder answers simulated SYN probes; *netmodel.Universe implements it.
type Responder interface {
	Responsive(ip asndb.IP, port uint16) bool
}

// Scanner is the probe engine. It is safe for concurrent use: probe
// accounting is atomic, and the Responder contract requires concurrent
// reads to be safe.
type Scanner struct {
	target Responder
	probes atomic.Uint64
	// shardIdx/shardCnt restrict prefix scans to the addresses this
	// scanner's shard owns (asndb.ShardOf); shardCnt <= 1 disables it.
	shardIdx, shardCnt int

	// census memoizes a sharded scanner's owned-address count per
	// prefix that has no closed form, so each is hashed at most once.
	censusMu sync.Mutex
	census   map[asndb.Prefix]uint64
}

// New creates a scanner against the given responder.
func New(target Responder) *Scanner {
	return &Scanner{target: target}
}

// NewSharded creates a scanner that owns one partition of an n-way
// hash-split of the address space: prefix scans probe (and account) only
// the addresses with asndb.ShardOf(ip, count) == index. Targeted probes
// (Probe) are unrestricted — callers direct those explicitly.
// count <= 1 yields a regular unsharded scanner; an index outside
// [0, count) panics, since such a scanner would own nothing while still
// accounting its probe share.
func NewSharded(target Responder, index, count int) *Scanner {
	s := New(target)
	if count > 1 {
		if index < 0 || index >= count {
			panic("scanner: shard index out of range")
		}
		s.shardIdx, s.shardCnt = index, count
	}
	return s
}

// owns reports whether ip belongs to this scanner's shard.
func (s *Scanner) owns(ip asndb.IP) bool {
	return asndb.ShardOwns(ip, s.shardIdx, s.shardCnt)
}

// ownedInPrefix returns the exact number of addresses in p this scanner's
// shard owns. ShardOf's last step multiplies (h ^ low byte) by an odd
// prime, a bijection on the low byte, so a power-of-two count up to 256
// owns 1/count of every /24; else the census counts, memoized per prefix.
func (s *Scanner) ownedInPrefix(p asndb.Prefix) uint64 {
	if n := uint64(s.shardCnt); p.Bits <= 24 && n <= 256 && n&(n-1) == 0 {
		return p.Size() / n
	}
	s.censusMu.Lock()
	if n, ok := s.census[p]; ok {
		s.censusMu.Unlock()
		return n
	}
	s.censusMu.Unlock()
	var n uint64
	for off := uint64(0); off < p.Size(); off++ {
		if s.owns(p.First() + asndb.IP(off)) {
			n++
		}
	}
	s.censusMu.Lock()
	if s.census == nil {
		s.census = make(map[asndb.Prefix]uint64)
	}
	s.census[p] = n
	s.censusMu.Unlock()
	return n
}

// Probe sends one SYN to (ip, port) and reports whether it was ACKed.
func (s *Scanner) Probe(ip asndb.IP, port uint16) bool {
	s.probes.Add(1)
	return s.target.Responsive(ip, port)
}

// Probes returns the number of probes sent so far.
func (s *Scanner) Probes() uint64 { return s.probes.Load() }

// ScanPrefix probes every address in the prefix on one port, in ZMap's
// pseudorandom order, and returns the responsive addresses. A sharded
// scanner probes only the addresses its shard owns.
func (s *Scanner) ScanPrefix(p asndb.Prefix, port uint16, seed int64) []asndb.IP {
	n := p.Size()
	it, err := NewCyclicIterator(n, seed)
	if err != nil {
		return nil
	}
	var out []asndb.IP
	for {
		idx, ok := it.Next()
		if !ok {
			break
		}
		ip := p.First() + asndb.IP(idx)
		if !s.owns(ip) {
			continue
		}
		if s.Probe(ip, port) {
			out = append(out, ip)
		}
	}
	return out
}

// PrefixResponder is an optional fast path a Responder may implement:
// enumerate the responsive addresses of a whole prefix directly.
// *netmodel.Universe implements it.
type PrefixResponder interface {
	ResponsiveIn(p asndb.Prefix, port uint16) []asndb.IP
}

// ScanPrefixFast scans a prefix on one port like ScanPrefix, but uses the
// responder's PrefixResponder fast path when available. The probe counter
// still advances by what ScanPrefix would probe — the bandwidth is
// identical, only the simulation is cheaper: the full prefix, or for a
// sharded scanner the addresses its shard owns (ownedInPrefix), whose
// responders alone it returns.
func (s *Scanner) ScanPrefixFast(p asndb.Prefix, port uint16, seed int64) []asndb.IP {
	pr, ok := s.target.(PrefixResponder)
	if !ok {
		return s.ScanPrefix(p, port, seed)
	}
	hits := pr.ResponsiveIn(p, port)
	if s.shardCnt <= 1 {
		s.probes.Add(p.Size())
		return hits
	}
	s.probes.Add(s.ownedInPrefix(p))
	return s.filterOwned(hits)
}

// filterOwned returns the addresses this scanner's shard owns. The input
// comes from the responder and must not be mutated, so a fresh slice is
// built.
func (s *Scanner) filterOwned(ips []asndb.IP) []asndb.IP {
	var owned []asndb.IP
	for _, ip := range ips {
		if s.owns(ip) {
			owned = append(owned, ip)
		}
	}
	return owned
}

// Rate describes a scanning rate for wall-time estimates.
type Rate struct {
	// Gbps is the link rate dedicated to probing.
	Gbps float64
}

// PPS returns the probe rate in packets per second.
func (r Rate) PPS() float64 { return r.Gbps * 1e9 / (ProbeBytes * 8) }

// Duration converts a probe count to wall time at this rate. This is the
// "Time (H) at 1 Gb/s" axis of Figure 2.
func (r Rate) Duration(probes uint64) time.Duration {
	if r.Gbps <= 0 {
		return 0
	}
	sec := float64(probes) / r.PPS()
	return time.Duration(sec * float64(time.Second))
}
