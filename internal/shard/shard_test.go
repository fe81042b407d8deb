package shard

import (
	"maps"
	"testing"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
)

// testWorld builds a small universe plus a filtered seed split.
func testWorld(t testing.TB, seed int64) (*netmodel.Universe, *dataset.Dataset) {
	t.Helper()
	u := netmodel.Generate(netmodel.TestParams(seed))
	full := dataset.SnapshotLZR(u, 0.3, seed^0x11)
	seedSet, _ := full.Split(0.04, seed^0x22)
	eligible := seedSet.EligiblePorts(2)
	return u, seedSet.FilterPorts(eligible)
}

func TestFilterOwns(t *testing.T) {
	var zero Filter
	if zero.Enabled() {
		t.Error("zero filter enabled")
	}
	if !zero.Owns(asndb.MustParseIP("10.0.0.1")) {
		t.Error("zero filter must own everything")
	}
	const n = 4
	ip := asndb.MustParseIP("10.0.0.1")
	owners := 0
	for i := 0; i < n; i++ {
		if (Filter{Index: i, Count: n}).Owns(ip) {
			owners++
		}
	}
	if owners != 1 {
		t.Errorf("%d shards own %v; want exactly 1", owners, ip)
	}
}

func TestPartitionDisjointUnion(t *testing.T) {
	_, seedSet := testWorld(t, 5)
	const n = 4
	parts := Partition(seedSet, n)
	if len(parts) != n {
		t.Fatalf("got %d partitions; want %d", len(parts), n)
	}
	total := 0
	var probes uint64
	for i, p := range parts {
		total += p.NumServices()
		probes += p.CollectionProbes
		for _, r := range p.Records {
			if asndb.ShardOf(r.IP, n) != i {
				t.Errorf("partition %d holds %v owned by shard %d", i, r.Key(), asndb.ShardOf(r.IP, n))
			}
		}
	}
	if total != seedSet.NumServices() {
		t.Errorf("partitions hold %d records; input had %d", total, seedSet.NumServices())
	}
	if probes != seedSet.CollectionProbes {
		t.Errorf("partition collection probes sum to %d; want %d", probes, seedSet.CollectionProbes)
	}
}

func TestSliceBudget(t *testing.T) {
	slices := SliceBudget(103, 4)
	var sum uint64
	for _, s := range slices {
		if s == 0 {
			t.Error("zero slice would read as unlimited")
		}
		sum += s
	}
	if sum != 103 {
		t.Errorf("slices sum to %d; want 103", sum)
	}
	for _, s := range SliceBudget(0, 4) {
		if s != 0 {
			t.Errorf("unlimited budget sliced to %d; want 0 (unlimited)", s)
		}
	}
	// A budget smaller than the shard count still gives every shard a
	// minimal budget rather than an accidental unlimited one.
	for _, s := range SliceBudget(2, 4) {
		if s != 1 {
			t.Errorf("tiny budget slice = %d; want 1", s)
		}
	}
}

// TestMergedInventoryByteIdentical is the determinism contract of the
// whole subsystem: partitioning the scan across N shards and merging must
// reproduce the 1-shard run's inventory byte for byte. It holds because
// the split is per-address, predictions never cross hosts, and every
// shard trains on the same broadcast seed.
func TestMergedInventoryByteIdentical(t *testing.T) {
	u, seedSet := testWorld(t, 7)
	cfg := pipeline.Config{Seed: 7}

	single, err := Run(u, seedSet, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Found) == 0 {
		t.Fatal("1-shard run discovered nothing; test world too small")
	}

	for _, n := range []int{2, 4, 8} {
		merged, err := Run(u, seedSet, cfg, n)
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		if merged.Conflicts != 0 {
			t.Errorf("%d shards: %d conflicts; hash split must be disjoint", n, merged.Conflicts)
		}
		if !maps.Equal(merged.Found, single.Found) {
			t.Errorf("%d-shard merged inventory differs from the 1-shard run (%d vs %d services)",
				n, len(merged.Found), len(single.Found))
		}
		if len(merged.Anchors) != len(single.Anchors) {
			t.Errorf("%d shards: %d anchors; want %d", n, len(merged.Anchors), len(single.Anchors))
		}
		for i := range merged.Anchors {
			if merged.Anchors[i].Key() != single.Anchors[i].Key() {
				t.Errorf("%d shards: anchor %d = %v; want %v", n, i, merged.Anchors[i].Key(), single.Anchors[i].Key())
				break
			}
		}
		// With an unlimited budget the shards' bandwidth sums to exactly
		// the unsharded run's, and the bottleneck shard carries ~1/n.
		if got, want := merged.TotalScanProbes(), single.TotalScanProbes(); got != want {
			t.Errorf("%d shards: total scan probes %d; want %d", n, got, want)
		}
		if merged.MaxShardProbes >= single.TotalScanProbes() {
			t.Errorf("%d shards: bottleneck shard spent %d probes, no better than unsharded %d",
				n, merged.MaxShardProbes, single.TotalScanProbes())
		}
	}
}

// TestShardWorkScalesDown checks the linear-scaling claim: the bottleneck
// shard's bandwidth drops roughly as 1/n.
func TestShardWorkScalesDown(t *testing.T) {
	u, seedSet := testWorld(t, 9)
	cfg := pipeline.Config{Seed: 9}
	single, err := Run(u, seedSet, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	merged, err := Run(u, seedSet, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	// Allow 50% slack over the ideal share for hash-split imbalance.
	ideal := single.TotalScanProbes() / n
	if merged.MaxShardProbes > ideal+ideal/2 {
		t.Errorf("bottleneck shard spent %d probes; ideal 1/%d share is %d", merged.MaxShardProbes, n, ideal)
	}
}

func TestMergeResultsConflict(t *testing.T) {
	// Two hand-built results reporting the same key: the merge must keep
	// one copy and count the conflict.
	k := netmodel.Key{IP: asndb.MustParseIP("10.0.0.1"), Port: 80}
	mk := func() *pipeline.Result {
		return &pipeline.Result{
			Found:       map[netmodel.Key]bool{k: true},
			Anchors:     []dataset.Record{{IP: k.IP, Port: k.Port}},
			Discoveries: []pipeline.Discovery{{Key: k}},
		}
	}
	m := MergeResults([]*pipeline.Result{mk(), mk()})
	if m.Conflicts != 1 {
		t.Errorf("conflicts = %d; want 1", m.Conflicts)
	}
	if len(m.Found) != 1 || len(m.Anchors) != 1 || len(m.Discoveries) != 1 {
		t.Errorf("merged sizes found=%d anchors=%d discoveries=%d; want 1/1/1",
			len(m.Found), len(m.Anchors), len(m.Discoveries))
	}
}

// TestRunFreshSeedConcurrent hands Run a seed dataset whose lazy index
// was never built, with a multi-shard count FIRST — the fan-out shares
// the dataset across N goroutines, so every accessor on that path must
// be a pure read (regression for a ByHost data race; run under -race).
func TestRunFreshSeedConcurrent(t *testing.T) {
	u := netmodel.Generate(netmodel.TestParams(29))
	fresh := dataset.SnapshotLZR(u, 0.3, 31) // never indexed, never split
	m, err := Run(u, fresh, pipeline.Config{Seed: 29}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Found) == 0 {
		t.Error("8-shard run on a fresh seed found nothing")
	}
}

func TestPartitionTinyProbes(t *testing.T) {
	d := &dataset.Dataset{CollectionProbes: 2}
	var sum uint64
	for _, p := range Partition(d, 4) {
		sum += p.CollectionProbes
	}
	// Unlike SliceBudget, partition accounting has no minimum-one clamp:
	// these are probes already spent, and the slices must sum exactly.
	if sum != 2 {
		t.Errorf("partition CollectionProbes sum to %d; want 2", sum)
	}
}
