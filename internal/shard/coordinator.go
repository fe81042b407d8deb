package shard

import (
	"fmt"
	"sync"
	"time"

	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/trace"
)

// Config parameterizes the sharded continuous coordinator.
type Config struct {
	// Shards is the partition count; <= 1 runs a single unsharded runner.
	// Keep it small relative to the seed size: a shard whose partition
	// owns no seed records has nothing to train on and can never
	// discover, leaving its slice of the address space unscanned. Check
	// Coordinator.EmptyShards after construction when the seed is small.
	Shards int
	// Continuous is the per-shard template. Its Budget is interpreted as
	// the GLOBAL per-epoch budget and sliced evenly across shards; its
	// ShardIndex/ShardCount fields are overwritten per shard.
	Continuous continuous.Config
}

func (c Config) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

// shardConfig derives shard i's runner configuration.
func (c Config) shardConfig(i int, budgets []uint64) continuous.Config {
	sc := c.Continuous
	sc.Budget = budgets[i]
	sc.ShardIndex, sc.ShardCount = i, c.shards()
	return sc
}

// Coordinator drives N continuous runners, one per partition, running
// their epochs concurrently and folding their per-shard inventories into
// one global view on demand. Each runner owns its partition exclusively:
// its model retrains on its own inventory, its discovery pipeline scans
// only its addresses, and its probe budget is a 1/N slice of the global
// epoch budget. The coordinator itself is not safe for concurrent use.
type Coordinator struct {
	cfg     Config
	runners []*continuous.Runner
	hook    CommitHook
	tel     *coordTelemetry
}

// CommitHook observes each committed coordinator epoch. It runs
// synchronously at the end of Epoch, after every shard finished, with the
// epoch number and the freshly merged (MergeInventories) global
// inventory. The map is the hook's to keep: it is built per call and
// shares nothing with shard state, so the serving layer can index it
// without copying again.
type CommitHook func(epoch int, inv map[netmodel.Key]*continuous.Entry)

// NewCoordinator creates a coordinator seeded with an initial observation
// set. The seed is handed to every runner; each keeps only the records its
// partition owns, so the union of the shard inventories is exactly the
// seeded set.
func NewCoordinator(seed *dataset.Dataset, cfg Config) *Coordinator {
	n := cfg.shards()
	budgets := SliceBudget(cfg.Continuous.Budget, n)
	c := &Coordinator{cfg: cfg, runners: make([]*continuous.Runner, n), tel: newCoordTelemetry(n)}
	for i := range c.runners {
		c.runners[i] = continuous.New(seed, cfg.shardConfig(i, budgets))
	}
	return c
}

// ResumeCoordinator recreates a coordinator from checkpointed per-shard
// states, one per partition in shard order. The state count must match
// cfg.Shards — resuming under a different shard count would strand every
// host in a partition that no longer scans it.
func ResumeCoordinator(states []*continuous.State, cfg Config) (*Coordinator, error) {
	n := cfg.shards()
	if len(states) != n {
		return nil, fmt.Errorf("shard: checkpoint holds %d shard states; config says %d shards", len(states), n)
	}
	budgets := SliceBudget(cfg.Continuous.Budget, n)
	c := &Coordinator{cfg: cfg, runners: make([]*continuous.Runner, n), tel: newCoordTelemetry(n)}
	for i := range c.runners {
		c.runners[i] = continuous.Resume(states[i], cfg.shardConfig(i, budgets))
	}
	return c, nil
}

// SetCommitHook registers the hook Epoch invokes after each commit; nil
// unregisters. Call it before the epoch loop starts, not concurrently
// with Epoch.
func (c *Coordinator) SetCommitHook(h CommitHook) { c.hook = h }

// EmptyShards returns the indexes of shards with an empty inventory.
// After construction these are the partitions that received no seed
// records: they cannot train a model or discover services, so their
// slice of the address space goes unscanned. A non-empty result means
// the shard count is too large for the seed (or, after epochs, that a
// partition's population died out).
func (c *Coordinator) EmptyShards() []int {
	var out []int
	for i, r := range c.runners {
		if len(r.State().Known) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// EpochNumber returns the last completed epoch (shards advance in
// lockstep).
func (c *Coordinator) EpochNumber() int { return c.runners[0].State().Epoch }

// States exposes the per-shard states in shard order (shared, not
// copied): read them for reporting, checkpoint them with WriteCheckpoint.
func (c *Coordinator) States() []*continuous.State {
	out := make([]*continuous.State, len(c.runners))
	for i, r := range c.runners {
		out[i] = r.State()
	}
	return out
}

// Epoch runs one epoch on every shard concurrently against the universe
// and returns the merged stats: counters summed, freshness folded. The
// per-shard stats remain available in each shard state's History.
func (c *Coordinator) Epoch(u *netmodel.Universe) (continuous.EpochStats, error) {
	root := trace.StartSpan(trace.SpanContext{}, "epoch",
		trace.Int("epoch", c.EpochNumber()+1), trace.Int("shards", len(c.runners)))
	stats := make([]continuous.EpochStats, len(c.runners))
	errs := make([]error, len(c.runners))
	var wg sync.WaitGroup
	for i, r := range c.runners {
		wg.Add(1)
		go func(i int, r *continuous.Runner) {
			defer wg.Done()
			ssp := trace.StartSpan(root.Context(), "shard-epoch", trace.Int("shard", i))
			r.SetTraceParent(ssp.Context())
			start := time.Now()
			stats[i], errs[i] = r.Epoch(u)
			c.tel.observeShard(i, time.Since(start))
			r.SetTraceParent(trace.SpanContext{})
			ssp.FinishErr(errs[i])
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			root.FinishErr(err)
			return continuous.EpochStats{}, fmt.Errorf("shard: shard %d/%d: %w", i, len(c.runners), err)
		}
	}
	c.tel.commit(c.EpochNumber())
	if c.hook != nil {
		inv, _ := MergeInventories(c.States())
		c.hook(c.EpochNumber(), inv)
	}
	root.Finish()
	return MergeStats(stats), nil
}

// MergeStats folds per-shard epoch stats into one global summary: probe
// and service counters sum, the freshness accounting folds component-wise.
func MergeStats(stats []continuous.EpochStats) continuous.EpochStats {
	var m continuous.EpochStats
	for _, s := range stats {
		m.Epoch = s.Epoch // lockstep: identical across shards
		m.ReverifyProbes += s.ReverifyProbes
		m.DiscoveryProbes += s.DiscoveryProbes
		m.Verified += s.Verified
		m.Lost += s.Lost
		m.Evicted += s.Evicted
		m.NewFound += s.NewFound
		m.Refreshed += s.Refreshed
		m.TrainSize += s.TrainSize
		m.KnownSize += s.KnownSize
		m.Freshness.Known += s.Freshness.Known
		m.Freshness.Fresh += s.Freshness.Fresh
		m.Freshness.Stale += s.Freshness.Stale
		m.Freshness.Checked += s.Freshness.Checked
		m.Freshness.Alive += s.Freshness.Alive
		// Shards run concurrently, so these sums read as CPU-seconds of
		// phase work, not wall time (see continuous.PhaseTimes).
		m.Phases.Reverify += s.Phases.Reverify
		m.Phases.Retrain += s.Phases.Retrain
		m.Phases.Discover += s.Phases.Discover
		m.Phases.Fold += s.Phases.Fold
	}
	return m
}

// Inventory returns the merged global inventory with cross-shard conflict
// resolution, plus how many conflicts were resolved. Under the hash split
// partitions are disjoint and conflicts are zero; they arise when resumed
// states overlap (e.g. hand-assembled checkpoints). Resolution prefers
// the shard that saw the host most recently (larger LastSeen), then the
// fresher entry (smaller Stale), then the longer-tracked one (smaller
// FirstSeen); entries are copied, so mutating the result does not corrupt
// shard state.
func (c *Coordinator) Inventory() (map[netmodel.Key]*continuous.Entry, int) {
	return MergeInventories(c.States())
}

// MergeInventories implements Inventory over raw checkpoint states.
func MergeInventories(states []*continuous.State) (map[netmodel.Key]*continuous.Entry, int) {
	merged := make(map[netmodel.Key]*continuous.Entry)
	conflicts := 0
	for _, st := range states {
		for k, e := range st.Known {
			cp := *e
			old, ok := merged[k]
			if !ok {
				merged[k] = &cp
				continue
			}
			conflicts++
			if betterEntry(&cp, old) {
				merged[k] = &cp
			}
		}
	}
	return merged, conflicts
}

// betterEntry reports whether a should replace b in a merged inventory.
func betterEntry(a, b *continuous.Entry) bool {
	if a.LastSeen != b.LastSeen {
		return a.LastSeen > b.LastSeen
	}
	if a.Stale != b.Stale {
		return a.Stale < b.Stale
	}
	return a.FirstSeen < b.FirstSeen
}
