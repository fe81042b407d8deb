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
// indexes by host, port, /16 prefix, and ASN, and precomputed freshness
// aggregates — and swaps it into a Publisher with a single atomic pointer
// store. A snapshot is built in one sorted pass: the inventory in
// canonical (IP, port) order becomes its service rows, and each index is
// postings over row ids, runs of one shared array. Readers load the
// pointer, query the immutable structure, and never block the scan loop
// (and the scan loop never blocks them): there is no lock anywhere on
// the read path. A request touches one atomic load (the pointer), the
// snapshot it found there, a render buffer of its own, and the atomic
// counters that account for it.
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
	"slices"
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
	byIP     postings
	byPort   postings
	byPrefix postings // key: /16 network address
	byASN    postings
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
//
// The build is one sorted pass: netmodel.SortedPairs puts the inventory
// in canonical order and the service rows are filled from it. Every
// postings list is then a run over row ids. Rows are sorted by IP, so a
// host's and a /16's rows are contiguous runs of the identity; the port
// and ASN indexes regroup the row ids by key with a counting sort.
// The build makes a few dozen allocations, not one per host.
func NewSnapshot(epoch int, inv map[netmodel.Key]*continuous.Entry) *Snapshot {
	pairs := netmodel.SortedPairs(inv)
	n := len(pairs)
	s := &Snapshot{epoch: epoch, services: make([]Service, n)}
	for i, p := range pairs {
		e := p.Value
		s.services[i] = Service{
			IP: p.Key.IP, Port: p.Key.Port,
			Proto: e.Rec.Proto, ASN: e.Rec.ASN,
			FirstSeen: e.FirstSeen, LastSeen: e.LastSeen, Stale: e.Stale,
		}
		if e.LastSeen == epoch {
			s.stats.Freshness.Fresh++
		}
		if e.Stale > 0 {
			s.stats.Freshness.Stale++
		}
	}

	// One array backs all four indexes' row ids: the identity (by IP and
	// by /16), then the rows grouped by port, then by ASN. key holds each
	// row's key for the index being built.
	rows := make([]int32, 3*n)
	all := rows[:n:n]
	for i := range all {
		all[i] = int32(i)
	}
	key, scratch := make([]uint32, n), make([]int32, n)
	for i := range s.services {
		key[i] = uint32(s.services[i].IP)
	}
	s.byIP = newPostings(all, key)
	for i := range s.services {
		key[i] = uint32(s.services[i].IP & asndb.Mask(16))
	}
	s.byPrefix = newPostings(all, key)
	for i := range s.services {
		key[i] = uint32(s.services[i].Port)
	}
	s.byPort = groupBy(key, rows[n:2*n:2*n], scratch)
	for i := range s.services {
		key[i] = uint32(s.services[i].ASN)
	}
	s.byASN = groupBy(key, rows[2*n:], scratch)

	s.ports = make([]PortCount, len(s.byPort.keys))
	for i, p := range s.byPort.keys {
		s.ports[i] = PortCount{Port: uint16(p), Services: len(s.byPort.group(i))}
	}
	s.stats.Epoch = epoch
	s.stats.Services = n
	s.stats.Hosts = len(s.byIP.keys)
	s.stats.Ports = len(s.byPort.keys)
	s.stats.Prefixes = len(s.byPrefix.keys)
	s.stats.ASNs = len(s.byASN.keys)
	s.stats.Freshness.Known = n
	return s
}

// postings is one secondary index in compressed-row form: keys ascend,
// and rows[offs[i]:offs[i+1]] are the ids of the rows whose key is
// keys[i], in canonical order.
type postings struct {
	keys []uint32
	offs []int32
	rows []int32
}

// newPostings indexes rows, which are already grouped by ascending
// key[row].
func newPostings(rows []int32, key []uint32) postings {
	runs := 0
	for i, r := range rows {
		if i == 0 || key[r] != key[rows[i-1]] {
			runs++
		}
	}
	p := postings{keys: make([]uint32, 0, runs), offs: make([]int32, 0, runs+1), rows: rows}
	for i, r := range rows {
		if i == 0 || key[r] != key[rows[i-1]] {
			p.keys = append(p.keys, key[r])
			p.offs = append(p.offs, int32(i))
		}
	}
	p.offs = append(p.offs, int32(len(rows)))
	return p
}

// group returns the row ids of the i-th key.
func (p *postings) group(i int) []int32 { return p.rows[p.offs[i]:p.offs[i+1]:p.offs[i+1]] }

// of returns the row ids whose key is k, nil when there are none.
func (p *postings) of(k uint32) []int32 {
	if i, ok := slices.BinarySearch(p.keys, k); ok {
		return p.group(i)
	}
	return nil
}

// groupBy indexes the rows 0..len(key)-1 by key[row] with one counting
// sort over the distinct keys: the keys ascend, and each key's rows keep
// canonical order. rows receives the grouped row ids; id is scratch, one
// slot per row.
func groupBy(key []uint32, rows, id []int32) postings {
	first := make(map[uint32]int32) // distinct key → order of first appearance
	var keys []uint32
	for r, k := range key {
		i, ok := first[k]
		if !ok {
			i = int32(len(keys))
			first[k] = i
			keys = append(keys, k)
		}
		id[r] = i
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	// at maps an order of first appearance to its key's ascending rank,
	// then serves as each group's write cursor.
	at := make([]int32, len(keys))
	for i, k := range keys {
		j, _ := slices.BinarySearch(sorted, k)
		at[i] = int32(j)
	}
	offs := make([]int32, len(keys)+1)
	for r := range id {
		id[r] = at[id[r]]
		offs[id[r]+1]++
	}
	for i := range keys {
		offs[i+1] += offs[i]
	}
	copy(at, offs)
	for r, i := range id {
		rows[at[i]] = int32(r)
		at[i]++
	}
	return postings{keys: sorted, offs: offs, rows: rows}
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
	out, _ := s.page(s.hostRows(ip), 0, -1)
	return out
}

// Port returns one page of the services on a port, in canonical order,
// plus the unpaginated total. offset clamps into [0, total]; a negative
// limit means "the rest".
func (s *Snapshot) Port(port uint16, offset, limit int) ([]Service, int) {
	return s.page(s.portRows(port), offset, limit)
}

// ASN returns one page of the services announced by an AS, plus the
// total.
func (s *Snapshot) ASN(asn asndb.ASN, offset, limit int) ([]Service, int) {
	return s.page(s.asnRows(asn), offset, limit)
}

// Prefix16 returns one page of the services inside ip's /16 subnetwork —
// GPS's network feature (Table 1) — plus the total.
func (s *Snapshot) Prefix16(ip asndb.IP, offset, limit int) ([]Service, int) {
	return s.page(s.prefixRows(ip), offset, limit)
}

// The four postings lookups, typed by what each index is keyed on.
func (s *Snapshot) hostRows(ip asndb.IP) []int32   { return s.byIP.of(uint32(ip)) }
func (s *Snapshot) portRows(port uint16) []int32   { return s.byPort.of(uint32(port)) }
func (s *Snapshot) asnRows(asn asndb.ASN) []int32  { return s.byASN.of(uint32(asn)) }
func (s *Snapshot) prefixRows(ip asndb.IP) []int32 { return s.byPrefix.of(uint32(ip & asndb.Mask(16))) }

// window clamps one page of a postings list: offset into [0, total], a
// negative limit meaning "the rest". The limit is compared against what
// is left, never added to the offset, so any int is a valid limit.
func window(ids []int32, offset, limit int) []int32 {
	if offset < 0 {
		offset = 0
	}
	if offset > len(ids) {
		offset = len(ids)
	}
	end := len(ids)
	if limit >= 0 && limit < end-offset {
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
