package shard

import (
	"maps"
	"testing"

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
		sum := 0
		for _, r := range merged.Results {
			sum += len(r.Found)
		}
		if sum != len(merged.Found) {
			t.Errorf("%d shards found %d services between them but merge to %d; hash split must be disjoint", n, sum, len(merged.Found))
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
