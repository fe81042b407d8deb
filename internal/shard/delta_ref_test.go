package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/features"
	"gps/internal/netmodel"
)

// referenceComputeDelta is ComputeDelta as a hash join: a lookup per key
// in each direction, then a sort of each list. It is the oracle the
// merge-join is held to.
func referenceComputeDelta(base, next map[netmodel.Key]*continuous.Entry, baseEpoch, epoch int) *Delta {
	d := &Delta{BaseEpoch: baseEpoch, Epoch: epoch}
	for k, e := range next {
		old, ok := base[k]
		switch {
		case !ok:
			d.Adds = append(d.Adds, DeltaEntry{Key: k, Entry: servedEntry(k, e)})
		case !servedEqual(old, e):
			d.Updates = append(d.Updates, DeltaEntry{Key: k, Entry: servedEntry(k, e)})
		}
	}
	for k := range base {
		if _, ok := next[k]; !ok {
			d.Removes = append(d.Removes, k)
		}
	}
	sortDeltaEntries(d.Adds)
	sortDeltaEntries(d.Updates)
	slices.SortFunc(d.Removes, netmodel.Key.Compare)
	return d
}

func sortDeltaEntries(es []DeltaEntry) {
	slices.SortFunc(es, func(a, b DeltaEntry) int { return a.Key.Compare(b.Key) })
}

// checkDeltaMatchesReference fails unless ComputeDelta(base, next) is the
// reference's delta, encodes to the same GPSE bytes, and advances a clone
// of base to GPSV bytes equal to next's.
func checkDeltaMatchesReference(t *testing.T, name string, base, next map[netmodel.Key]*continuous.Entry) {
	t.Helper()
	got, want := ComputeDelta(base, next, 6, 7), referenceComputeDelta(base, next, 6, 7)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: delta has %d/%d/%d adds/updates/removes; the reference %d/%d/%d, or they differ in content",
			name, len(got.Adds), len(got.Updates), len(got.Removes), len(want.Adds), len(want.Updates), len(want.Removes))
	}
	var gw, ww bytes.Buffer
	if err := WriteDelta(&gw, got); err != nil {
		t.Fatal(err)
	}
	if err := WriteDelta(&ww, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gw.Bytes(), ww.Bytes()) {
		t.Fatalf("%s: GPSE bytes differ from the reference's", name)
	}
	applied := CloneInventory(base)
	if err := ApplyDelta(applied, got); err != nil {
		t.Fatalf("%s: applying the delta to its own base: %v", name, err)
	}
	if !bytes.Equal(invBytes(t, applied), invBytes(t, next)) {
		t.Fatalf("%s: base + delta is not next under GPSV", name)
	}
}

// churnOf returns a deep copy of base with a seeded share of its keys
// removed, its entries changed field by field, and new keys drawn from
// key added.
func churnOf(rng *rand.Rand, base map[netmodel.Key]*continuous.Entry, adds int, key func() netmodel.Key) map[netmodel.Key]*continuous.Entry {
	next := CloneInventory(base)
	keys := make([]netmodel.Key, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, netmodel.Key.Compare)
	for _, k := range keys {
		e := next[k]
		switch rng.Intn(12) {
		case 0:
			delete(next, k)
		case 1:
			e.LastSeen++
		case 2:
			e.Stale++
		case 3:
			e.Rec.Proto++
		case 4:
			e.Rec.ASN ^= 1 << 31
		case 5:
			e.Rec.TTL--
		case 6:
			e.FirstSeen--
		case 7:
			// Application-layer features never cross the formats: not an
			// update.
			e.Rec.Feats = features.NewSet(features.Value{Key: features.KeyHTTPTitle, Val: "changed"})
		}
	}
	for i := 0; i < adds; i++ {
		k := key()
		if _, ok := next[k]; !ok {
			next[k] = fuzzEntry(k, features.Protocol(rng.Intn(features.NumProtocols)), asndb.ASN(rng.Uint32()), uint8(rng.Intn(256)), 1, 2+rng.Intn(3), rng.Intn(2))
		}
	}
	return next
}

// TestComputeDeltaMatchesReference: on seeded random inventories, small
// and large, and on the edges of the key space, the merge-join delta is
// the hash-join reference's, to the byte.
func TestComputeDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	gen := func(n int, key func() netmodel.Key) map[netmodel.Key]*continuous.Entry {
		inv := make(map[netmodel.Key]*continuous.Entry, n)
		for len(inv) < n {
			k := key()
			inv[k] = fuzzEntry(k, features.Protocol(rng.Intn(features.NumProtocols)), asndb.ASN(rng.Intn(4)), 64, 1, 2+rng.Intn(3), rng.Intn(2))
		}
		return inv
	}
	keyIn := func(ip func() asndb.IP, port func() uint16) func() netmodel.Key {
		return func() netmodel.Key { return netmodel.Key{IP: ip(), Port: port()} }
	}
	anyIP := func() asndb.IP { return asndb.IP(rng.Uint32()) }
	anyPort := func() uint16 { return uint16(rng.Intn(1 << 16)) }
	type pair struct {
		name       string
		base, next map[netmodel.Key]*continuous.Entry
	}
	var cases []pair
	add := func(name string, n int, key func() netmodel.Key) {
		base := gen(n, key)
		cases = append(cases, pair{name, base, churnOf(rng, base, n/10+1, key)})
	}
	empty := map[netmodel.Key]*continuous.Entry{}
	one := gen(1, keyIn(func() asndb.IP { return math.MaxUint32 }, func() uint16 { return 65535 }))
	cases = append(cases, pair{"empty", empty, empty}, pair{"empty-to-one", empty, one},
		pair{"one-to-empty", one, empty}, pair{"nil-to-one", nil, one})
	add("one", 1, keyIn(func() asndb.IP { return 0 }, func() uint16 { return 0 }))
	add("ends", 4, keyIn(func() asndb.IP { return asndb.IP(math.MaxUint32 * uint32(rng.Intn(2))) },
		func() uint16 { return uint16(65535 * rng.Intn(2)) }))
	for _, n := range []int{100, 8000} {
		add(fmt.Sprintf("random-%d", n), n, keyIn(anyIP, anyPort))
	}
	add("straddle-16", 3000, keyIn(func() asndb.IP { return asndb.MustParseIP("10.12.0.0") - 4 + asndb.IP(rng.Intn(8)) }, anyPort))
	wide := gen(50, keyIn(func() asndb.IP { return asndb.MustParseIP("192.0.2.0") + asndb.IP(rng.Intn(64)) }, anyPort))
	for p := 0; p < 300; p++ {
		k := netmodel.Key{IP: asndb.MustParseIP("192.0.2.77"), Port: uint16(2000 + p)}
		wide[k] = fuzzEntry(k, 1, 1, 64, 1, 2, 0)
	}
	cases = append(cases, pair{"wide-host", wide, churnOf(rng, wide, 20, keyIn(func() asndb.IP { return asndb.MustParseIP("192.0.2.77") }, anyPort))})
	add("shared-top", 4000, keyIn(func() asndb.IP { return asndb.MustParseIP("10.11.0.0") + asndb.IP(rng.Intn(1<<16)) },
		func() uint16 { return uint16(rng.Intn(256)) }))

	for _, c := range cases {
		checkDeltaMatchesReference(t, c.name, c.base, c.next)
		checkDeltaMatchesReference(t, c.name+" reversed", c.next, c.base)
	}
}

// FuzzComputeDelta decodes two inventories from the fuzz bytes and holds
// the merge-join delta between them to the hash-join reference: the same
// *Delta, the same GPSE bytes, and a clone of the base advanced by it
// writing next's GPSV bytes.
//
// Each 4-byte record [ip-hi, ip-lo, port, ctl] names a run of keys: ctl's
// low two bits say which side holds it (base only, next only, both alike,
// both with next's counters moved) and its high six bits how many
// consecutive ports the run covers, so a few hundred bytes make an
// inventory of thousands of keys.
func FuzzComputeDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xfd})
	f.Add([]byte{0x0a, 0x0b, 0xff, 0x03, 0x0a, 0x0c, 0x00, 0xfe, 0x0a, 0x0c, 0x00, 0xff})
	big := make([]byte, 0, 4*48)
	for i := 0; i < 48; i++ {
		big = append(big, byte(i*37), byte(i*11), byte(i*5), byte(i)|0xfc)
	}
	f.Add(big)

	f.Fuzz(func(t *testing.T, data []byte) {
		base := make(map[netmodel.Key]*continuous.Entry)
		next := make(map[netmodel.Key]*continuous.Entry)
		// The key budget keeps one execution to milliseconds.
		for ; len(data) >= 4 && len(base)+len(next) < 1<<11; data = data[4:] {
			// The two IP bytes pick a /16; odd ones take its last address,
			// so neighbouring records straddle a /16 boundary.
			ip := asndb.IP(uint32(data[0])<<24 | uint32(data[1])<<16)
			if data[1]&1 == 1 {
				ip |= 0xffff
			}
			ctl := data[3]
			for p := 0; p <= int(ctl>>2); p++ {
				port := uint16(data[2])<<8 | uint16(p)
				if data[2] == 0xff {
					port = 65535 - uint16(p)
				}
				k := netmodel.Key{IP: ip, Port: port}
				e := fuzzEntry(k, features.Protocol(data[2]%5), asndb.ASN(data[0]), 64, 1, 3, 0)
				switch ctl & 3 {
				case 0:
					base[k] = e
				case 1:
					next[k] = e
				case 2:
					base[k], next[k] = e, e
				case 3:
					moved := *e
					moved.LastSeen += p % 2
					moved.Stale += p % 3
					base[k], next[k] = e, &moved
				}
			}
		}
		checkDeltaMatchesReference(t, "fuzz", base, next)
	})
}
