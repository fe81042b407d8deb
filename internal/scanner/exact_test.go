package scanner

import (
	"slices"
	"testing"

	"gps/internal/asndb"
)

// bruteOwned counts the addresses of p that shard (index, count) owns by
// hashing every address — the ground truth prefix-scan accounting must
// match.
func bruteOwned(p asndb.Prefix, index, count int) uint64 {
	var n uint64
	for off := uint64(0); off < p.Size(); off++ {
		if asndb.ShardOf(p.First()+asndb.IP(off), count) == index {
			n++
		}
	}
	return n
}

// TestExactShardCounts: for every shard of a /20, unsharded included,
// the fast path accounts and returns exactly what ScanPrefix's
// per-address walk probes and finds — the owned-address count — and
// the shards' counts sum to the prefix size. Under a power-of-two count
// the hash split owns exactly 1/count of every aligned block; three
// shards own uneven slices, so only the owned count holds there.
func TestExactShardCounts(t *testing.T) {
	net := fakeNetFast{testNet()}
	pfx := asndb.MustPrefix(asndb.MustParseIP("10.0.0.0"), 20)

	for _, n := range []int{1, 3, 4} {
		var sum uint64
		for i := 0; i < n; i++ {
			fast, slow := NewSharded(net, i, n), NewSharded(net, i, n)
			got := fast.ScanPrefixFast(pfx, 80, 1)
			want := slow.ScanPrefix(pfx, 80, 1)
			sortIPs(want)
			if fast.Probes() != slow.Probes() || fast.Probes() != bruteOwned(pfx, i, n) {
				t.Errorf("shard %d/%d: fast path accounted %d probes, ScanPrefix %d; owned count = %d",
					i, n, fast.Probes(), slow.Probes(), bruteOwned(pfx, i, n))
			}
			if !slices.Equal(got, want) {
				t.Errorf("shard %d/%d: fast path found %v, ScanPrefix %v", i, n, got, want)
			}
			sum += fast.Probes()
		}
		if sum != pfx.Size() {
			t.Errorf("%d shards accounted %d probes; want the prefix's %d", n, sum, pfx.Size())
		}
	}

	// The memoized census must return the same count on a second scan.
	sc := NewSharded(net, 1, 4)
	sc.ScanPrefixFast(pfx, 80, 1)
	first := sc.Probes()
	sc.ScanPrefixFast(pfx, 80, 1)
	if sc.Probes() != 2*first {
		t.Errorf("second scan accounted %d probes; memoized count should repeat %d",
			sc.Probes()-first, first)
	}
}

// An unsharded scanner's share is the full prefix: the fast path accounts
// every address of it.
func TestExactShardCountsUnsharded(t *testing.T) {
	net := fakeNetFast{testNet()}
	pfx := asndb.MustPrefix(asndb.MustParseIP("10.0.0.0"), 20)
	sc := New(net)
	sc.ScanPrefixFast(pfx, 80, 1)
	if sc.Probes() != pfx.Size() {
		t.Errorf("unsharded scan accounted %d probes; want %d", sc.Probes(), pfx.Size())
	}
}

// TestCensusClosedForm holds ownedInPrefix, closed form and memoized
// walk alike, to the per-address count for power-of-two and other shard
// counts, at prefixes the closed form covers (/16, /20, /24) and ones it
// leaves to the walk (/25, /28).
func TestCensusClosedForm(t *testing.T) {
	for _, base := range []string{"10.0.0.0", "203.113.0.0"} {
		for _, bits := range []uint8{16, 20, 24, 25, 28} {
			p := asndb.MustPrefix(asndb.MustParseIP(base), bits)
			for _, n := range []int{2, 4, 8, 16, 256, 3, 5, 6} {
				want := make([]uint64, n)
				for off := uint64(0); off < p.Size(); off++ {
					want[asndb.ShardOf(p.First()+asndb.IP(off), n)]++
				}
				for i := 0; i < n; i++ {
					if got := NewSharded(nil, i, n).ownedInPrefix(p); got != want[i] {
						t.Errorf("%v shard %d/%d: census %d, per-address count %d", p, i, n, got, want[i])
					}
				}
			}
		}
	}
}
