// Package serve is the read path of the continuous inventory: a
// lock-free snapshot query engine that turns the producer loop's merged
// inventory into something millions of users can query without ever
// touching the scan.
//
// The paper's end product is a continuously-refreshed service inventory;
// everything up to here *produces* it (pipeline, continuous epochs, shard
// merge, distributed transport), and this package *serves* it. The two
// sides meet at exactly one point: at each epoch commit the producer
// builds an immutable Snapshot — the merged inventory plus secondary
// indexes by port, /16 prefix, and ASN, and precomputed freshness
// aggregates — and swaps it into a Publisher with a single atomic pointer
// store. Readers load the pointer, query the immutable structure, and
// never block the scan loop (and the scan loop never blocks them): there
// is no lock anywhere on the read path. A request touches one atomic
// load (the pointer), the snapshot it found there, a render buffer of
// its own, and the atomic counters that account for it.
//
// Server wraps a Publisher in an HTTP API (/v1/host, /v1/port, /v1/asn,
// /v1/prefix, /v1/ports, /v1/stats, /v1/healthz) with pagination and
// ETags keyed on the epoch. Every response is a pure function of the
// snapshot: list pages render straight from its postings, and the two
// aggregate bodies are rendered once and kept in it, so nothing outlives
// a swap and nothing needs invalidating. cmd/gpsd mounts it next to the
// daemon (-serve), next to the distributed coordinator, or standalone
// over a GPSV inventory file (gpsd serve FILE).
package serve

import (
	"sort"
	"sync/atomic"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/features"
	"gps/internal/metrics"
	"gps/internal/netmodel"
)

// Service is one inventory entry as served: the (IP, port) identity, the
// record fields the secondary indexes answer on, and the observation
// history the freshness aggregates are computed from.
type Service struct {
	IP        asndb.IP
	Port      uint16
	Proto     features.Protocol
	ASN       asndb.ASN
	FirstSeen int
	LastSeen  int
	Stale     int
}

// Stats is the snapshot's precomputed aggregate view: how big the
// inventory is, how it spreads over the address space, and how fresh it
// is. Computing it once at build time keeps /v1/stats O(1).
type Stats struct {
	// Epoch is the epoch the snapshot was committed at.
	Epoch int
	// Services, Hosts, Ports, Prefixes, and ASNs count the distinct
	// values the inventory covers (Prefixes counts /16 networks).
	Services, Hosts, Ports, Prefixes, ASNs int
	// Freshness is the inventory-derivable staleness accounting: Known,
	// Fresh (observed alive at the snapshot epoch), and Stale (carrying a
	// missed re-verification). Checked/Alive are per-epoch scan counters
	// that live in EpochStats, not in the inventory, and stay zero here.
	Freshness metrics.Freshness
}

// PortCount is one row of the per-port coverage aggregate.
type PortCount struct {
	Port     uint16
	Services int
}

// Snapshot is one immutable, fully-indexed view of the inventory at a
// committed epoch. All methods are safe for unlimited concurrent use; the
// inventory and its indexes are never mutated after NewSnapshot returns,
// which is what lets the Publisher swap it under readers with a single
// atomic store.
type Snapshot struct {
	epoch    int
	services []Service // sorted by (IP, port): the canonical order
	byIP     map[asndb.IP][]int32
	byPort   map[uint16][]int32
	byPrefix map[asndb.IP][]int32 // key: /16 network address
	byASN    map[asndb.ASN][]int32
	ports    []PortCount // sorted by port
	stats    Stats

	// What the Server answers with that depends on nothing but the
	// snapshot. Each is rendered by the first request that asks for it (a
	// snapshot nobody queries pays nothing) and dies with the snapshot,
	// so there is nothing to invalidate.
	etag      lazy[string]
	statsBody lazy[[]byte]
	portsBody lazy[[]byte]
}

// lazy is a pure function's value, kept once the first caller has
// computed it. Callers racing to be first each compute it and one result
// wins; they are equal, and nobody waits on a lock.
type lazy[T any] struct{ p atomic.Pointer[T] }

func (l *lazy[T]) get(compute func() T) T {
	if p := l.p.Load(); p != nil {
		return *p
	}
	v := compute()
	l.p.CompareAndSwap(nil, &v)
	return *l.p.Load()
}

// NewSnapshot indexes a merged inventory (shard.MergeInventories output,
// a single runner's Known map, or shard.ReadInventory of a GPSV file) as
// of the given committed epoch. The input map is read, never retained:
// the snapshot copies what it serves, so the producer may keep mutating
// its inventory the moment this returns.
func NewSnapshot(epoch int, inv map[netmodel.Key]*continuous.Entry) *Snapshot {
	keys := netmodel.SortedKeys(inv)
	s := &Snapshot{
		epoch:    epoch,
		services: make([]Service, len(keys)),
		byIP:     make(map[asndb.IP][]int32),
		byPort:   make(map[uint16][]int32),
		byPrefix: make(map[asndb.IP][]int32),
		byASN:    make(map[asndb.ASN][]int32),
	}
	for i, k := range keys {
		e := inv[k]
		s.services[i] = Service{
			IP: k.IP, Port: k.Port,
			Proto: e.Rec.Proto, ASN: e.Rec.ASN,
			FirstSeen: e.FirstSeen, LastSeen: e.LastSeen, Stale: e.Stale,
		}
		id := int32(i)
		s.byIP[k.IP] = append(s.byIP[k.IP], id)
		s.byPort[k.Port] = append(s.byPort[k.Port], id)
		pfx := k.IP & asndb.Mask(16)
		s.byPrefix[pfx] = append(s.byPrefix[pfx], id)
		s.byASN[e.Rec.ASN] = append(s.byASN[e.Rec.ASN], id)

		if e.LastSeen == epoch {
			s.stats.Freshness.Fresh++
		}
		if e.Stale > 0 {
			s.stats.Freshness.Stale++
		}
	}
	s.stats.Epoch = epoch
	s.stats.Services = len(s.services)
	s.stats.Hosts = len(s.byIP)
	s.stats.Ports = len(s.byPort)
	s.stats.Prefixes = len(s.byPrefix)
	s.stats.ASNs = len(s.byASN)
	s.stats.Freshness.Known = len(s.services)

	s.ports = make([]PortCount, 0, len(s.byPort))
	for p, ids := range s.byPort {
		s.ports = append(s.ports, PortCount{Port: p, Services: len(ids)})
	}
	sort.Slice(s.ports, func(i, j int) bool { return s.ports[i].Port < s.ports[j].Port })
	return s
}

// Epoch returns the committed epoch the snapshot reflects.
func (s *Snapshot) Epoch() int { return s.epoch }

// Stats returns the precomputed aggregates.
func (s *Snapshot) Stats() Stats { return s.stats }

// NumServices returns the inventory size.
func (s *Snapshot) NumServices() int { return len(s.services) }

// Services returns every service in canonical (IP, port) order. The
// returned slice is the snapshot's own: read-only by contract.
func (s *Snapshot) Services() []Service { return s.services }

// Ports returns the per-port coverage aggregate, sorted by port. The
// returned slice is the snapshot's own: read-only by contract.
func (s *Snapshot) Ports() []PortCount { return s.ports }

// Host returns every service on one address, in port order.
func (s *Snapshot) Host(ip asndb.IP) []Service {
	ids := s.byIP[ip]
	out, _ := s.page(ids, 0, -1)
	return out
}

// Port returns one page of the services on a port, in canonical order,
// plus the unpaginated total. offset clamps into [0, total]; a negative
// limit means "the rest".
func (s *Snapshot) Port(port uint16, offset, limit int) ([]Service, int) {
	return s.page(s.byPort[port], offset, limit)
}

// ASN returns one page of the services announced by an AS, plus the
// total.
func (s *Snapshot) ASN(asn asndb.ASN, offset, limit int) ([]Service, int) {
	return s.page(s.byASN[asn], offset, limit)
}

// Prefix16 returns one page of the services inside ip's /16 subnetwork —
// GPS's network feature (Table 1) — plus the total.
func (s *Snapshot) Prefix16(ip asndb.IP, offset, limit int) ([]Service, int) {
	return s.page(s.byPrefix[ip&asndb.Mask(16)], offset, limit)
}

// window clamps one page of a postings list: offset into [0, total], a
// negative limit meaning "the rest".
func window(ids []int32, offset, limit int) []int32 {
	if offset < 0 {
		offset = 0
	}
	if offset > len(ids) {
		offset = len(ids)
	}
	end := len(ids)
	if limit >= 0 && offset+limit < end {
		end = offset + limit
	}
	return ids[offset:end]
}

// page materializes one window of a postings list. The result is a fresh
// slice (callers may append or sort it freely); the total is the full
// postings length.
func (s *Snapshot) page(ids []int32, offset, limit int) ([]Service, int) {
	win := window(ids, offset, limit)
	out := make([]Service, 0, len(win))
	for _, id := range win {
		out = append(out, s.services[id])
	}
	return out, len(ids)
}
