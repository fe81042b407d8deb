package scanner

import (
	"testing"

	"gps/internal/asndb"
)

// bruteOwned counts the addresses of p that shard (index, count) owns by
// hashing every address — the ground truth exact accounting must match.
func bruteOwned(p asndb.Prefix, index, count int) uint64 {
	var n uint64
	for off := uint64(0); off < p.Size(); off++ {
		if asndb.ShardOf(p.First()+asndb.IP(off), count) == index {
			n++
		}
	}
	return n
}

func TestExactShardCounts(t *testing.T) {
	net := fakeNetFast{testNet()}
	pfx := asndb.MustPrefix(asndb.MustParseIP("10.0.0.0"), 20)
	const n = 4

	var exactSum, idealSum uint64
	for i := 0; i < n; i++ {
		exact := NewSharded(net, i, n)
		exact.SetExactShardCounts(true)
		exact.ScanPrefixFast(pfx, 80, 1)
		if want := bruteOwned(pfx, i, n); exact.Probes() != want {
			t.Errorf("shard %d exact accounting = %d probes; brute-force owned count = %d",
				i, exact.Probes(), want)
		}
		exactSum += exact.Probes()

		ideal := NewSharded(net, i, n)
		ideal.ScanPrefixFast(pfx, 80, 1)
		idealSum += ideal.Probes()
	}
	// Both modes sum exactly to the prefix size across shards; only exact
	// mode also matches per shard.
	if exactSum != pfx.Size() || idealSum != pfx.Size() {
		t.Errorf("shard sums exact=%d ideal=%d; want %d", exactSum, idealSum, pfx.Size())
	}

	// The memoized census must return the same count on a second scan.
	sc := NewSharded(net, 1, n)
	sc.SetExactShardCounts(true)
	sc.ScanPrefixFast(pfx, 80, 1)
	first := sc.Probes()
	sc.ScanPrefixFast(pfx, 80, 1)
	if sc.Probes() != 2*first {
		t.Errorf("second scan accounted %d probes; memoized count should repeat %d",
			sc.Probes()-first, first)
	}
}

// Exact mode on an unsharded scanner is a no-op: the share already is the
// full prefix.
func TestExactShardCountsUnsharded(t *testing.T) {
	net := fakeNetFast{testNet()}
	pfx := asndb.MustPrefix(asndb.MustParseIP("10.0.0.0"), 20)
	sc := New(net)
	sc.SetExactShardCounts(true)
	sc.ScanPrefixFast(pfx, 80, 1)
	if sc.Probes() != pfx.Size() {
		t.Errorf("unsharded exact mode accounted %d probes; want %d", sc.Probes(), pfx.Size())
	}
}
