package shard

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
	"gps/internal/trace"
)

func coordConfig(n int) Config {
	return Config{
		Shards:     n,
		Continuous: continuous.Config{Pipeline: pipeline.Config{Workers: 1, Seed: 7}},
	}
}

// statsExec is an in-process executor that keeps the stats each shard's
// last epoch returned, so a test can hold the coordinator's merge to
// what the executors reported.
type statsExec struct {
	localExecutor
	last map[int]continuous.EpochStats
}

func (x *statsExec) Epoch(s, epoch int, base *continuous.State, u *netmodel.Universe, parent trace.SpanContext) (*continuous.State, continuous.EpochStats, bool, error) {
	st, stats, draining, err := x.localExecutor.Epoch(s, epoch, base, u, parent)
	x.last[s] = stats
	return st, stats, draining, err
}

func TestCoordinatorEpochLockstep(t *testing.T) {
	u, seedSet := testWorld(t, 11)
	const n = 3
	c := NewFleetCoordinator(coordConfig(n), t.Logf)
	execs := make([]*statsExec, n)
	for i := range execs {
		execs[i] = &statsExec{localExecutor{runners: make(map[int]*continuous.Runner)}, make(map[int]continuous.EpochStats)}
		c.Admit(fmt.Sprintf("local/%d", i), "", execs[i])
	}
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	if len(c.States()) != n {
		t.Fatalf("%d shard states; want %d", len(c.States()), n)
	}

	// Seeding partitions the seed set: the merged inventory is exactly
	// the seeded services, disjoint across shards.
	checkDisjoint(t, c.States())
	inv, _ := c.Inventory()
	seeded := make(map[netmodel.Key]bool)
	for _, r := range seedSet.Records {
		seeded[r.Key()] = true
	}
	if len(inv) != len(seeded) {
		t.Errorf("merged seeded inventory holds %d services; seed set had %d distinct", len(inv), len(seeded))
	}
	// The merged entries are copies: writing one leaves shard state alone.
	first := &c.States()[0].Known[0]
	inv[first.Rec.Key()].Stale = 99
	if first.Stale == 99 {
		t.Error("merged inventory aliases shard state")
	}

	world := u
	for e := 1; e <= 2; e++ {
		world = netmodel.Churn(world, netmodel.DefaultChurn(100+int64(e)))
		stats, err := c.Epoch(world)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if stats.Epoch != e || c.EpochNumber() != e {
			t.Errorf("epoch counters %d/%d; want %d", stats.Epoch, c.EpochNumber(), e)
		}
		// Merged stats must equal the sum of what the shards' executors
		// returned, and the known size what the states hold.
		var wantKnown, wantVerified, stateKnown int
		for s, st := range c.States() {
			h := execs[c.Assignment()[s]].last[s]
			if h.Epoch != e {
				t.Fatalf("shard %d returned stats for epoch %d; want %d", s, h.Epoch, e)
			}
			wantKnown += h.KnownSize
			wantVerified += h.Verified
			stateKnown += len(st.Known)
		}
		if stats.KnownSize != wantKnown || stats.Verified != wantVerified || stateKnown != wantKnown {
			t.Errorf("epoch %d merged known=%d verified=%d; shard sums %d/%d",
				e, stats.KnownSize, stats.Verified, wantKnown, wantVerified)
		}
	}

	// Every entry lands in the shard that owns its IP, so the shards are
	// disjoint.
	for i, st := range c.States() {
		for _, e := range st.Known {
			if asndb.ShardOf(e.Rec.IP, n) != i {
				t.Errorf("shard %d tracks %v owned by shard %d", i, e.Rec.Key(), asndb.ShardOf(e.Rec.IP, n))
			}
		}
	}
	checkDisjoint(t, c.States())
}

// checkDisjoint fails t unless no key is in two of the states: their
// sizes sum to the size of their merged inventory.
func checkDisjoint(t *testing.T, states []*continuous.State) {
	t.Helper()
	sum := 0
	for _, st := range states {
		sum += len(st.Known)
	}
	if n := len(MergeInventories(states)); n != sum {
		t.Errorf("shard states hold %d entries but merge to %d services; want disjoint states", sum, n)
	}
}

func TestCoordinatorBudgetSlices(t *testing.T) {
	u, seedSet := testWorld(t, 13)
	const n = 2
	budget := 6 * u.SpaceSize()
	cfg := coordConfig(n)
	cfg.Continuous.Budget = budget
	c := NewCoordinator(seedSet, cfg)
	world := netmodel.Churn(u, netmodel.DefaultChurn(101))
	stats, err := c.Epoch(world)
	if err != nil {
		t.Fatal(err)
	}
	// Each shard respects its slice, so the global epoch spend stays at
	// (or marginally over, from the final in-flight target) the budget.
	if got := stats.Probes(); got > budget+budget/10 {
		t.Errorf("epoch spent %d probes against a global budget of %d", got, budget)
	}
}

func TestShardedCheckpointResume(t *testing.T) {
	u, seedSet := testWorld(t, 17)
	const n = 3
	c := NewCoordinator(seedSet, coordConfig(n))
	world := netmodel.Churn(u, netmodel.DefaultChurn(201))
	if _, err := c.Epoch(world); err != nil {
		t.Fatal(err)
	}

	// The checkpoint is the merged run; a resume re-partitions it.
	run, err := Merge(c.States())
	if err != nil {
		t.Fatal(err)
	}
	run, err = DecodeState(stateBytes(t, run))
	if err != nil {
		t.Fatal(err)
	}
	states := Partition(run, n)
	resumed, err := ResumeCoordinator(states, coordConfig(n))
	if err != nil {
		t.Fatal(err)
	}

	// The resumed coordinator must continue exactly where the original
	// would: one more epoch on both yields identical inventories.
	world = netmodel.Churn(world, netmodel.DefaultChurn(202))
	if _, err := c.Epoch(world); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Epoch(world); err != nil {
		t.Fatal(err)
	}
	invA, _ := c.Inventory()
	invB, _ := resumed.Inventory()
	if len(invA) != len(invB) {
		t.Fatalf("resumed inventory %d services; original %d", len(invB), len(invA))
	}
	for k, a := range invA {
		b, ok := invB[k]
		if !ok {
			t.Fatalf("resumed inventory missing %v", k)
		}
		if a.LastSeen != b.LastSeen || a.Stale != b.Stale || a.FirstSeen != b.FirstSeen {
			t.Errorf("entry %v diverged after resume: %+v vs %+v", k, *a, *b)
		}
	}

	// Shard-count mismatch is an error, not a silent re-shard.
	if _, err := ResumeCoordinator(states, coordConfig(n+1)); err == nil {
		t.Error("resuming 3 shard states under 4 shards succeeded")
	}
}

// TestResumeRefusesForeignKeys: state s may hold only keys shard s owns.
// Seeded states in the wrong order are refused, naming the owner, and the
// coordinator is left holding no state.
func TestResumeRefusesForeignKeys(t *testing.T) {
	_, seedSet := testWorld(t, 17)
	st := NewCoordinator(seedSet, coordConfig(2)).States()
	if len(st[0].Known) == 0 || len(st[1].Known) == 0 {
		t.Fatal("a shard was seeded empty")
	}
	c, err := ResumeCoordinator([]*continuous.State{st[1], st[0]}, coordConfig(2))
	if err == nil || !strings.Contains(err.Error(), "which shard 1 owns") {
		t.Fatalf("resume of swapped states returned %v; want a refusal naming the owner", err)
	}
	if c.States() != nil {
		t.Error("a refused resume left states in the coordinator")
	}
}

func TestEmptyShardsDetected(t *testing.T) {
	_, seedSet := testWorld(t, 23)
	c := NewCoordinator(seedSet, coordConfig(2))
	if empty := c.EmptyShards(); len(empty) != 0 {
		t.Errorf("2-way split of %d seed records left shards %v empty", seedSet.NumServices(), empty)
	}
	// A shard count far beyond the seed size must be detectable: with
	// one seed record, at most one of many shards can be non-empty.
	one := *seedSet
	one.Records = seedSet.Records[:1]
	big := NewCoordinator(&one, coordConfig(8))
	if empty := big.EmptyShards(); len(empty) != 7 {
		t.Errorf("8-way split of 1 record reports %d empty shards; want 7", len(empty))
	}
}

// TestCoordinatorCommitHook verifies the hook fires after each epoch's
// shards all finish, carrying the same merged inventory Inventory()
// reports — the contract the serving layer snapshots on.
func TestCoordinatorCommitHook(t *testing.T) {
	u, seedSet := testWorld(t, 13)
	c := NewCoordinator(seedSet, coordConfig(2))

	var epochs []int
	var hookInv map[netmodel.Key]*continuous.Entry
	c.SetCommitHook(func(epoch int, inv map[netmodel.Key]*continuous.Entry) {
		epochs = append(epochs, epoch)
		hookInv = inv
	})

	world := netmodel.Churn(u, netmodel.DefaultChurn(101))
	if _, err := c.Epoch(world); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || epochs[0] != 1 {
		t.Fatalf("hook saw epochs %v; want [1]", epochs)
	}
	want, _ := c.Inventory()
	if len(hookInv) != len(want) {
		t.Fatalf("hook inventory holds %d entries; Inventory() reports %d", len(hookInv), len(want))
	}
	for k, e := range want {
		g, ok := hookInv[k]
		if !ok || g.FirstSeen != e.FirstSeen || g.LastSeen != e.LastSeen ||
			g.Stale != e.Stale || g.Rec.Key() != e.Rec.Key() {
			t.Fatalf("hook inventory disagrees with Inventory() at %v", k)
		}
	}
}

// TestClusterShardLatencies: after K in-process epochs the cluster
// document holds one latency row per shard, each counting K more epochs
// than before them, with a positive median, and its worker and latency
// rows carry exactly their documented JSON keys. The gps_shard_epoch_seconds histograms are
// process-wide, so the rows are read against the document before the
// epochs.
func TestClusterShardLatencies(t *testing.T) {
	u, seedSet := testWorld(t, 19)
	const n, k = 3, 2
	c := NewCoordinator(seedSet, coordConfig(n))
	before := c.Status().ShardLatencies
	world := u
	for e := 1; e <= k; e++ {
		world = netmodel.Churn(world, netmodel.DefaultChurn(500+int64(e)))
		if _, err := c.Epoch(world); err != nil {
			t.Fatal(err)
		}
	}
	doc := c.Status()
	if len(doc.ShardLatencies) != n || len(before) != n {
		t.Fatalf("%d latency rows before the epochs and %d after; want %d", len(before), len(doc.ShardLatencies), n)
	}
	for s, row := range doc.ShardLatencies {
		if row.Shard != s || row.Epochs != before[s].Epochs+k || !(row.P50Seconds > 0) {
			t.Errorf("shard %d row %+v; want shard %d, %d epochs, p50 > 0", s, row, s, before[s].Epochs+k)
		}
	}
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var rows struct {
		Workers        []map[string]any `json:"workers"`
		ShardLatencies []map[string]any `json:"shard_latencies"`
	}
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rows []map[string]any
		keys string
	}{
		{rows.Workers, "addr id joined shard_count shards state"},
		{rows.ShardLatencies, "epochs p50_seconds p99_seconds shard worker"},
	} {
		for _, row := range tc.rows {
			var keys []string
			for k := range row {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if got := strings.Join(keys, " "); got != tc.keys {
				t.Errorf("cluster row keys %q; want %q", got, tc.keys)
			}
		}
	}
}
