package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
)

// referenceSnapshot is the snapshot as it was built before the one
// sorted pass: a map of postings per index, one appended slice per key.
// It is the oracle NewSnapshot is held to.
type referenceSnapshot struct {
	epoch    int
	services []Service
	byIP     map[asndb.IP][]int32
	byPort   map[uint16][]int32
	byPrefix map[asndb.IP][]int32
	byASN    map[asndb.ASN][]int32
	ports    []PortCount
	stats    Stats
}

// newReferenceSnapshot is the map-postings NewSnapshot body, unchanged.
func newReferenceSnapshot(epoch int, inv map[netmodel.Key]*continuous.Entry) *referenceSnapshot {
	keys := make([]netmodel.Key, 0, len(inv))
	for k := range inv {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, netmodel.Key.Compare)
	s := &referenceSnapshot{
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

func (s *referenceSnapshot) page(ids []int32, offset, limit int) ([]Service, int) {
	win := window(ids, offset, limit)
	out := make([]Service, 0, len(win))
	for _, id := range win {
		out = append(out, s.services[id])
	}
	return out, len(ids)
}

// oracleInventories are the inputs the sorted-pass snapshot is checked
// against its reference on: seeded random inventories, small and large,
// and the edges of the key space.
func oracleInventories() []oracleCase {
	rng := rand.New(rand.NewSource(27))
	asns := []asndb.ASN{0, 7018, 64500, 64501, 1<<24 | 3, math.MaxUint32}
	add := func(inv map[netmodel.Key]*continuous.Entry, ip asndb.IP, port uint16) {
		first := rng.Intn(6)
		inv[netmodel.Key{IP: ip, Port: port}] = &continuous.Entry{
			Rec: dataset.Record{
				IP: ip, Port: port, TTL: 64,
				Proto: features.Protocol(rng.Intn(features.NumProtocols)),
				ASN:   asns[rng.Intn(len(asns))],
			},
			FirstSeen: first, LastSeen: first + rng.Intn(3), Stale: rng.Intn(2),
		}
	}
	gen := func(n int, ip func() asndb.IP, port func() uint16) map[netmodel.Key]*continuous.Entry {
		inv := make(map[netmodel.Key]*continuous.Entry, n)
		for len(inv) < n {
			add(inv, ip(), port())
		}
		return inv
	}
	common := []uint16{0, 22, 80, 443, 8080, 65535}
	anyPort := func() uint16 {
		if rng.Intn(2) == 0 {
			return common[rng.Intn(len(common))]
		}
		return uint16(rng.Intn(1 << 16))
	}
	out := []oracleCase{
		{"empty", map[netmodel.Key]*continuous.Entry{}},
		{"one", gen(1, func() asndb.IP { return math.MaxUint32 }, func() uint16 { return 65535 })},
		{"ends", gen(4, func() asndb.IP { return asndb.IP(math.MaxUint32 * uint32(rng.Intn(2))) },
			func() uint16 { return uint16(65535 * rng.Intn(2)) })},
	}
	for _, n := range []int{100, 6000} {
		hosts := make([]asndb.IP, n/3+1)
		for i := range hosts {
			hosts[i] = asndb.IP(rng.Uint32())
		}
		out = append(out, oracleCase{fmt.Sprintf("random-%d", n),
			gen(n, func() asndb.IP { return hosts[rng.Intn(len(hosts))] }, anyPort)})
	}
	// Hosts on both sides of the 10.11/16 | 10.12/16 boundary.
	out = append(out, oracleCase{"straddle-16", gen(2000, func() asndb.IP { return asndb.MustParseIP("10.12.0.0") - 6 + asndb.IP(rng.Intn(12)) }, anyPort)})
	// One host serving 300 ports beside a few small ones: a run longer
	// than a radix digit.
	wide := gen(40, func() asndb.IP { return asndb.MustParseIP("192.0.2.0") + asndb.IP(rng.Intn(256)) }, anyPort)
	for p := 0; p < 300; p++ {
		add(wide, asndb.MustParseIP("192.0.2.77"), uint16(1000+p))
	}
	out = append(out, oracleCase{"wide-host", wide})
	// Every key in one /16 on ports under 256, every service in one AS:
	// the shared digits skip most radix passes, and the ASN index has one
	// group.
	shared := gen(3000, func() asndb.IP { return asndb.MustParseIP("10.11.0.0") + asndb.IP(rng.Intn(1<<16)) },
		func() uint16 { return uint16(rng.Intn(256)) })
	for _, e := range shared {
		e.Rec.ASN = 64500
	}
	return append(out, oracleCase{"shared-top", shared})
}

type oracleCase struct {
	name string
	inv  map[netmodel.Key]*continuous.Entry
}

// TestSnapshotMatchesReference: on every oracle inventory the sorted-pass
// snapshot answers every accessor exactly as the map-postings reference
// does — for every key, with random windows, and for keys it does not
// hold.
func TestSnapshotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range oracleInventories() {
		name, inv := c.name, c.inv
		got, want := NewSnapshot(5, inv), newReferenceSnapshot(5, inv)
		if got.Epoch() != want.epoch || got.NumServices() != len(want.services) {
			t.Fatalf("%s: epoch/size %d/%d; want %d/%d", name, got.Epoch(), got.NumServices(), want.epoch, len(want.services))
		}
		if !reflect.DeepEqual(got.Services(), want.services) {
			t.Fatalf("%s: Services differ", name)
		}
		if !reflect.DeepEqual(got.Ports(), want.ports) {
			t.Fatalf("%s: Ports = %v; want %v", name, got.Ports(), want.ports)
		}
		if got.Stats() != want.stats {
			t.Fatalf("%s: Stats = %+v; want %+v", name, got.Stats(), want.stats)
		}
		check := func(g []Service, gn int, w []Service, wn int, call string, args ...any) {
			t.Helper()
			if gn != wn || !slices.Equal(g, w) {
				t.Fatalf("%s: %s = %d services of %d; want %d of %d", name, fmt.Sprintf(call, args...), len(g), gn, len(w), wn)
			}
		}
		win := func(total int) (int, int) { return rng.Intn(total+3) - 1, rng.Intn(total+3) - 1 }
		probe := func(ip asndb.IP, port uint16, asn asndb.ASN) {
			check(got.Host(ip), 0, want.hostPage(ip), 0, "Host(%v)", ip)
			off, lim := win(len(want.byPort[port]))
			g, gn := got.Port(port, off, lim)
			w, wn := want.page(want.byPort[port], off, lim)
			check(g, gn, w, wn, "Port(%d, %d, %d)", port, off, lim)
			off, lim = win(len(want.byASN[asn]))
			g, gn = got.ASN(asn, off, lim)
			w, wn = want.page(want.byASN[asn], off, lim)
			check(g, gn, w, wn, "ASN(%d, %d, %d)", asn, off, lim)
			pfx := ip & asndb.Mask(16)
			off, lim = win(len(want.byPrefix[pfx]))
			g, gn = got.Prefix16(ip, off, lim)
			w, wn = want.page(want.byPrefix[pfx], off, lim)
			check(g, gn, w, wn, "Prefix16(%v, %d, %d)", ip, off, lim)
		}
		for _, svc := range want.services {
			probe(svc.IP, svc.Port, svc.ASN)
		}
		// Keys the inventory may not hold, at both ends of each key space.
		for _, ip := range []asndb.IP{0, 1, asndb.MustParseIP("10.12.0.0"), math.MaxUint32 - 1, math.MaxUint32} {
			for _, port := range []uint16{0, 1, 444, 65534, 65535} {
				probe(ip, port, asndb.ASN(port)<<16)
			}
		}
	}
}

func (s *referenceSnapshot) hostPage(ip asndb.IP) []Service {
	out, _ := s.page(s.byIP[ip], 0, -1)
	return out
}

// TestWindowNeverOverflows pins the paging arithmetic of the exported
// accessors at the extremes: a limit of math.MaxInt with a non-zero
// offset used to wrap offset+limit negative and panic.
func TestWindowNeverOverflows(t *testing.T) {
	snap := NewSnapshot(3, testInventory(30, 3))
	for name, list := range map[string]func(offset, limit int) ([]Service, int){
		"Port":     func(o, l int) ([]Service, int) { return snap.Port(80, o, l) },
		"ASN":      func(o, l int) ([]Service, int) { return snap.ASN(100, o, l) },
		"Prefix16": func(o, l int) ([]Service, int) { return snap.Prefix16(asndb.MustParseIP("10.1.0.0"), o, l) },
	} {
		all, n := list(0, -1)
		if n == 0 || len(all) != n {
			t.Fatalf("%s lists %d of %d services; want a non-empty full list", name, len(all), n)
		}
		for _, offset := range []int{0, 1, n, n + 5} {
			for _, limit := range []int{-1, 0, 1, n, math.MaxInt} {
				want := all[min(offset, n):]
				if limit >= 0 && limit < len(want) {
					want = want[:limit]
				}
				got, total := list(offset, limit)
				if total != n || !reflect.DeepEqual(got, append([]Service{}, want...)) {
					t.Errorf("%s(offset %d, limit %d) = %d services of %d; want %d of %d", name, offset, limit, len(got), total, len(want), n)
				}
			}
		}
	}
}
