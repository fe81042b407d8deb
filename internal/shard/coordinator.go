package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"gps/internal/asndb"
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

// Executor is where one worker's shards run their epochs: a cached
// continuous.Runner in process, a GPST connection to a worker process in a
// fleet. The coordinator owns every shard's state; an executor holds a
// cache of what was placed on it, and one goroutine at a time calls it.
//
// A failed call is a link failure — the worker is declared dead and its
// shards fail over — unless the error's chain holds one whose
// `Refused() bool` reports true: a refusal (a rejected world spec, an
// epoch that itself errored) would fail identically on every worker, so it
// aborts instead. An executor that also implements io.Closer is closed
// when its worker leaves the fleet, drained or dead.
// While placed[s] holds, the executor's state for shard s is c.states[s]:
// an abort clears placed, a lost result re-places the shard, so a fleet's
// epoch result need carry only the step from it (EncodeStep).
type Executor interface {
	// Place caches shard s at st, the coordinator's state for it. owned is
	// every shard the worker serves once the placement lands, s included;
	// tc, when valid, parents the placement's spans.
	Place(s int, cfg continuous.Config, st *continuous.State, owned []int, tc trace.SpanContext) error
	// Epoch runs shard s's given epoch from base, its placed state, and
	// returns the new state, the epoch's stats (phases included) and
	// whether the worker asks to drain. u is the universe an in-process
	// epoch scans; it is nil for a fleet, whose workers hold their own
	// replica, built from the world spec. The runner's phase spans hang
	// from the per-shard span the executor opens under parent.
	Epoch(s, epoch int, base *continuous.State, u *netmodel.Universe, parent trace.SpanContext) (st *continuous.State, stats continuous.EpochStats, draining bool, err error)
}

// refusal marks an in-process epoch's error: with no link to lose, a local
// epoch fails only by erroring itself.
type refusal struct{ error }

func (r refusal) Refused() bool { return true }
func (r refusal) Unwrap() error { return r.error }

// refused reports whether an executor failure is a refusal (see Executor).
func refused(err error) bool {
	var r interface{ Refused() bool }
	return errors.As(err, &r) && r.Refused()
}

// localExecutor skips the wire: runners resumed on the coordinator's own
// states — no encode/decode. An epoch builds the next state and never
// writes the last one, so a refused epoch leaves the coordinator's states
// as they were, as a fleet's does.
type localExecutor struct{ runners map[int]*continuous.Runner }

func (x *localExecutor) Place(s int, cfg continuous.Config, st *continuous.State, _ []int, _ trace.SpanContext) error {
	x.runners[s] = continuous.Resume(st, cfg)
	return nil
}

func (x *localExecutor) Epoch(s, _ int, _ *continuous.State, u *netmodel.Universe, parent trace.SpanContext) (*continuous.State, continuous.EpochStats, bool, error) {
	r := x.runners[s]
	span := trace.StartSpan(parent, "shard-epoch", trace.Int("shard", s))
	r.SetTraceParent(span.Context())
	stats, err := r.Epoch(u)
	r.SetTraceParent(trace.SpanContext{})
	span.FinishErr(err)
	if err != nil {
		return nil, stats, false, refusal{err}
	}
	return r.State(), stats, false, nil
}

// Coordinator drives N shards epoch by epoch, in process or across a
// worker fleet — only the workers' Executors differ. It owns the per-shard
// states, the shard → worker assignment, the budget slices, the epoch loop
// with its failover and all-or-nothing commit, the merged view and the
// membership policy (cluster.go). Each shard owns one partition
// exclusively (asndb.ShardOf, enforced by its runner's shard filter and
// checked wherever a state enters the coordinator): its
// model retrains on its own inventory, its discovery scans only its
// addresses, and its probe budget is a 1/N slice of the epoch budget.
// Apart from Status and RequestDrain it is not safe for concurrent use.
type Coordinator struct {
	cfg     Config
	budgets []uint64
	logf    func(format string, args ...any)
	tel     *coordTelemetry
	hook    CommitHook

	workers  []*worker
	admitted []*worker // joined since the last epoch boundary
	assign   []int     // shard → index into workers
	placed   []bool    // shard is cached on its assigned worker at states[s]
	states   []*continuous.State
	failures []*WorkerError

	// epochTrace is the in-flight epoch's root span context: boundary
	// work (migrations, drains) parents its spans under it.
	epochTrace trace.SpanContext

	// Shared with HTTP handlers; the rest is epoch-loop-thread only.
	mu       sync.Mutex
	drainReq map[string]bool
	status   ClusterStatus
}

// CommitHook observes each committed coordinator epoch. It runs
// synchronously at the end of Epoch, after every shard finished, with the
// epoch number and the freshly merged (MergeInventories) global
// inventory. The map is the hook's to keep: it is built per call and
// shares nothing with shard state, so the serving layer can index it
// without copying again.
type CommitHook func(epoch int, inv map[netmodel.Key]*continuous.Entry)

// NewFleetCoordinator creates a coordinator with no workers and no shard
// states: Admit the starting fleet, then Seed or Resume. logf receives one
// line per membership event.
func NewFleetCoordinator(cfg Config, logf func(format string, args ...any)) *Coordinator {
	n := max(cfg.Shards, 1)
	cfg.Shards = n
	return &Coordinator{
		cfg:      cfg,
		budgets:  SliceBudget(cfg.Continuous.Budget, n),
		logf:     logf,
		tel:      newCoordTelemetry(n),
		assign:   make([]int, n),
		placed:   make([]bool, n),
		drainReq: make(map[string]bool),
	}
}

// newLocalCoordinator is a coordinator over in-process executors, one
// worker per shard so the shards' epochs run concurrently.
func newLocalCoordinator(cfg Config) *Coordinator {
	c := NewFleetCoordinator(cfg, func(string, ...any) {})
	for i := range c.assign {
		c.Admit(fmt.Sprintf("local/%d", i), "", &localExecutor{runners: make(map[int]*continuous.Runner)})
	}
	return c
}

// NewCoordinator creates an in-process coordinator seeded with an initial
// observation set (see Seed).
func NewCoordinator(seed *dataset.Dataset, cfg Config) *Coordinator {
	c := newLocalCoordinator(cfg)
	if err := c.Seed(seed); err != nil {
		panic(err) // unreachable: an in-process placement cannot fail
	}
	return c
}

// ResumeCoordinator recreates an in-process coordinator from checkpointed
// per-shard states (see Resume).
func ResumeCoordinator(states []*continuous.State, cfg Config) (*Coordinator, error) {
	c := newLocalCoordinator(cfg)
	return c, c.Resume(states)
}

// shardConfig derives shard s's runner configuration: the global budget
// pre-sliced, the shard filter pinned.
func (c *Coordinator) shardConfig(s int) continuous.Config {
	sc := c.cfg.Continuous
	sc.Budget = c.budgets[s]
	sc.ShardIndex, sc.ShardCount = s, c.cfg.Shards
	return sc
}

// Seed initializes every shard from one seed set: each shard's epoch-0
// state is the records its partition owns (continuous.SeedState is
// deterministic), so the union of the shard inventories is exactly the
// seeded set, and the workers then start from those states the way they
// would from a checkpoint. A worker receives only its own shards' states,
// never the whole seed.
func (c *Coordinator) Seed(seed *dataset.Dataset) error {
	states := make([]*continuous.State, c.cfg.Shards)
	for s := range states {
		states[s] = continuous.SeedState(seed, c.shardConfig(s))
	}
	return c.Resume(states)
}

// Partition splits one key-sorted run into the states of an n-way split
// (n >= 1), by the hash Seed's ShardOwns filter tests: every key lands in
// exactly one part, each part keeps the run's order and epoch. Parts
// share the run's entries, which no one writes.
func Partition(st *continuous.State, n int) []*continuous.State {
	parts := make([]*continuous.State, n)
	for s := range parts {
		parts[s] = &continuous.State{Epoch: st.Epoch}
	}
	for _, e := range st.Known {
		part := parts[asndb.ShardOf(e.Rec.IP, n)]
		part.Known = append(part.Known, e)
	}
	return parts
}

// Merge is Partition's inverse: the shards' disjoint runs as one
// key-sorted run. States at different epochs, or two tracking the same
// service, are not one commit of one coordinator and are refused.
func Merge(states []*continuous.State) (*continuous.State, error) {
	if len(states) == 0 {
		return nil, errors.New("shard: merge of zero states")
	}
	out := &continuous.State{Epoch: states[0].Epoch}
	for s, st := range states {
		if st.Epoch != out.Epoch {
			return nil, fmt.Errorf("shard: merging shard %d (epoch %d) with shard 0 (epoch %d): epochs differ", s, st.Epoch, out.Epoch)
		}
		out.Known = append(out.Known, st.Known...)
	}
	slices.SortFunc(out.Known, func(a, b continuous.Entry) int { return a.Rec.Key().Compare(b.Rec.Key()) })
	for i := 1; i < len(out.Known); i++ {
		if k := out.Known[i].Rec.Key(); k == out.Known[i-1].Rec.Key() {
			return nil, fmt.Errorf("shard: two shards track %v; states overlap", k)
		}
	}
	return out, nil
}

// Resume initializes every shard from the given states, one per shard in
// shard order, placing each on its worker (with the epoch loop's failover
// and refusal rules, see fanOut). The state count must match cfg.Shards —
// resuming under a different shard count would strand every host in a
// partition that no longer scans it — and state s may hold only keys
// shard s owns, as Partition's part s does.
func (c *Coordinator) Resume(states []*continuous.State) error {
	if len(states) != c.cfg.Shards {
		return fmt.Errorf("shard: checkpoint holds %d shard states; config says %d shards", len(states), c.cfg.Shards)
	}
	if len(c.workers) == 0 {
		return fmt.Errorf("shard: no workers admitted")
	}
	for s, st := range states {
		if err := c.checkOwned(s, st); err != nil {
			return fmt.Errorf("shard: resume: %w", err)
		}
	}
	c.states = states
	return c.fanOut("init", func(wi, s int) error { return c.place(s, wi, trace.SpanContext{}) })
}

// checkOwned refuses a state for shard s that holds a key another shard
// owns. The hash split (asndb.ShardOf) makes the shards' states
// key-disjoint by construction; checking it wherever a state enters the
// coordinator is what lets every merge of them skip conflict handling.
func (c *Coordinator) checkOwned(s int, st *continuous.State) error {
	for _, e := range st.Known {
		if owner := asndb.ShardOf(e.Rec.IP, c.cfg.Shards); owner != s {
			return fmt.Errorf("shard %d state holds %v, which shard %d owns", s, e.Rec.Key(), owner)
		}
	}
	return nil
}

// place puts shard s on worker wi at the coordinator's current state for
// it: the one placement. Seeding, resume, dead-worker failover and live
// migration all land here, because the coordinator owns every shard's
// state and a worker's runner is only a cache of it. Re-pointing
// assign[s] is the caller's move, after this returns nil (s is not yet
// assigned to wi when a migration calls).
func (c *Coordinator) place(s, wi int, tc trace.SpanContext) error {
	owned := c.ownedBy(wi)
	if c.assign[s] != wi {
		owned = append(owned, s)
	}
	if err := c.workers[wi].ex.Place(s, c.shardConfig(s), c.states[s], owned, tc); err != nil {
		return err
	}
	c.placed[s] = true
	return nil
}

// ownedBy returns the shards currently assigned to worker index wi.
func (c *Coordinator) ownedBy(wi int) []int {
	var out []int
	for s, w := range c.assign {
		if w == wi {
			out = append(out, s)
		}
	}
	return out
}

// SetCommitHook registers the hook Epoch invokes after each all-or-nothing
// commit; nil unregisters. Call it before the epoch loop starts, not
// concurrently with Epoch.
func (c *Coordinator) SetCommitHook(h CommitHook) { c.hook = h }

// EmptyShards returns the indexes of shards with an empty inventory.
// After construction these are the partitions that received no seed
// records: they cannot train a model or discover services, so their
// slice of the address space goes unscanned. A non-empty result means
// the shard count is too large for the seed (or, after epochs, that a
// partition's population died out).
func (c *Coordinator) EmptyShards() []int {
	var out []int
	for i, st := range c.states {
		if len(st.Known) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// EpochNumber returns the last completed epoch (shards advance in
// lockstep).
func (c *Coordinator) EpochNumber() int {
	if len(c.states) == 0 {
		return 0
	}
	return c.states[0].Epoch
}

// States exposes the coordinator's authoritative per-shard states in
// shard order (shared, not copied): read them for reporting, checkpoint
// them with WriteCheckpoint. After every Epoch they are exactly what the
// executors hold, so checkpointing the coordinator checkpoints the fleet.
func (c *Coordinator) States() []*continuous.State { return c.states }

// fanOut runs op once for every shard: workers in parallel, a worker's
// shards in sequence, in rounds until every shard has succeeded. A link
// failure re-queues the worker's unfinished shards to survivors for the
// next round — safe because an epoch is a deterministic function of
// (state, universe, config) and the coordinator still holds the pre-epoch
// state. A refusal aborts instead. The error is a *WorkerError only when
// a shard has nowhere left to run.
func (c *Coordinator) fanOut(what string, op func(wi, s int) error) error {
	n := c.cfg.Shards
	done := make([]bool, n)
	for {
		// Re-home shards whose worker died (in a previous round or a
		// previous epoch) before fanning out.
		byWorker := make(map[int][]int)
		for s := 0; s < n; s++ {
			if done[s] {
				continue
			}
			wi, err := c.liveWorker(s)
			if err != nil {
				return err
			}
			byWorker[wi] = append(byWorker[wi], s)
		}
		if len(byWorker) == 0 {
			return nil
		}

		// Each worker's goroutine writes only its own shards' slots.
		failed := make([]error, n)
		var wg sync.WaitGroup
		for wi, shards := range byWorker {
			wg.Add(1)
			go func(wi int, shards []int) {
				defer wg.Done()
				for i, s := range shards {
					err := op(wi, s)
					if err == nil {
						done[s] = true
						continue
					}
					failed[s] = err
					if !refused(err) {
						// The link is poisoned: every later shard on this
						// worker fails over too.
						for _, rest := range shards[i+1:] {
							failed[rest] = err
						}
					}
					return
				}
			}(wi, shards)
		}
		wg.Wait()

		var abort error
		for s, err := range failed {
			switch w := c.workers[c.assign[s]]; {
			case err == nil:
			case refused(err):
				abort = fmt.Errorf("shard: %s, shard %d on %s: %w", what, s, w.id, err)
			default:
				c.workerFailed(s, w, err)
			}
		}
		if abort != nil {
			// Workers whose shards did succeed are now ahead of c.states:
			// re-place from the retained states before any retry.
			for s := range c.placed {
				c.placed[s] = false
			}
			return abort
		}
	}
}

// Epoch runs the next epoch on every shard (fanOut) and returns the merged
// stats (MergeStats). u is the universe as of this epoch for in-process
// executors, nil for a fleet (see Executor).
//
// State commits are all-or-nothing: the states advance only when every
// shard finished the epoch, so after an error a fleet coordinator still
// holds the consistent pre-epoch layout (checkpointable, retryable), and
// the commit hook only ever observes a fully consistent post-epoch one.
// A returned state at another epoch, or holding a key its shard does not
// own, fails the call like a broken link.
func (c *Coordinator) Epoch(u *netmodel.Universe) (continuous.EpochStats, error) {
	if c.states == nil {
		return continuous.EpochStats{}, fmt.Errorf("shard: Epoch before Seed or Resume")
	}
	n := c.cfg.Shards
	epoch := c.EpochNumber() + 1
	root := trace.StartSpan(trace.SpanContext{}, "epoch", trace.Int("epoch", epoch), trace.Int("shards", n))
	c.epochTrace = root.Context()
	defer func() { c.epochTrace = trace.SpanContext{} }()
	// The epoch boundary: every queued membership change lands here, under
	// the root span and before any shard starts, so the fan-out always
	// sees a settled assignment.
	c.maintain()

	next := make([]*continuous.State, n)
	stats := make([]continuous.EpochStats, n)
	walls := make([]time.Duration, n)
	err := c.fanOut(fmt.Sprintf("epoch %d", epoch), func(wi, s int) error {
		w := c.workers[wi]
		if !c.placed[s] {
			if err := c.place(s, wi, root.Context()); err != nil {
				return err
			}
		}
		start := time.Now()
		st, shardStats, draining, err := w.ex.Epoch(s, epoch, c.states[s], u, root.Context())
		if err != nil {
			return err
		}
		if st.Epoch != epoch {
			return fmt.Errorf("shard %d state returned at epoch %d, want %d", s, st.Epoch, epoch)
		}
		if err := c.checkOwned(s, st); err != nil {
			return err
		}
		next[s], stats[s], walls[s] = st, shardStats, time.Since(start)
		c.tel.shardLat[s].Observe(walls[s].Seconds())
		if draining && !w.wantsDrain {
			// Worker-initiated leave: the drain itself happens at the next
			// boundary. Safe to set here — one goroutine owns a worker per
			// round, and maintain reads it only after the fan-out joins.
			w.wantsDrain = true
			c.logf("shard: worker %q reports draining; migrating its shards at the next boundary", w.id)
		}
		return nil
	})
	if err != nil {
		root.FinishErr(err)
		return continuous.EpochStats{}, err
	}

	c.states = next
	c.tel.commit(epoch)
	if c.hook != nil {
		c.hook(epoch, MergeInventories(c.states))
	}
	c.publishStatus()
	root.Finish()
	return MergeStats(stats, walls), nil
}

// MergeStats folds per-shard epoch stats into one global summary: probe
// and service counters sum, the freshness accounting folds component-wise.
// Shards run concurrently, so their phase times do not add: the merged
// Phases are those of the bounding shard — the one with the largest
// measured epoch wall time (wall[i] is shard i's), named in Phases.Shard —
// and so sum to no more than the epoch's own wall time.
func MergeStats(stats []continuous.EpochStats, wall []time.Duration) continuous.EpochStats {
	var m continuous.EpochStats
	bound := 0
	for i, s := range stats {
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
		if wall[i] > wall[bound] {
			bound = i
		}
	}
	if len(stats) > 0 {
		m.Phases = stats[bound].Phases
		m.Phases.Shard = bound
	}
	return m
}

// Inventory returns the merged global inventory and the epoch it is as
// of. Entries are copied, so mutating the result does not corrupt shard
// state.
func (c *Coordinator) Inventory() (map[netmodel.Key]*continuous.Entry, int) {
	return MergeInventories(c.states), c.EpochNumber()
}

// MergeInventories is Inventory over raw states, which must be
// key-disjoint, as every coordinator's are (see checkOwned).
func MergeInventories(states []*continuous.State) map[netmodel.Key]*continuous.Entry {
	merged := make(map[netmodel.Key]*continuous.Entry)
	for _, st := range states {
		known := slices.Clone(st.Known) // the merged entries, one allocation per state
		for i := range known {
			merged[known[i].Rec.Key()] = &known[i]
		}
	}
	return merged
}
