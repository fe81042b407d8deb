package shard

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/trace"
)

// The coordinator's failover, commit and membership logic, driven through
// a scripted Executor: no sockets, no universe, no sleeps. A scripted
// epoch is a synthetic but deterministic state transition, so "the merged
// inventory equals the fault-free run's" means every shard advanced
// exactly once per committed epoch, whatever failed on the way.

// fault is what a scripted executor does instead of answering.
type fault int

const (
	failLink   fault = iota + 1 // the call fails like a dead connection
	refuse                      // the call is refused deterministically
	wrongShard                  // a placement is acknowledged for another shard
	askDrain                    // the epoch succeeds and reports draining
	foreignKey                  // the epoch's new service is one another shard owns
)

// at names one call: the attempt-th time op ("place" or "epoch") is
// asked of shard at epoch, on any worker.
type at struct {
	op                    string
	shard, epoch, attempt int
}

// fakeFleet is the script and the log its executors share; they run
// concurrently, one goroutine per worker.
type fakeFleet struct {
	shards int
	mu     sync.Mutex
	faults map[at]fault
	tries  map[at]int       // calls so far, keyed with attempt 0
	ran    map[string][]int // worker id → epochs of the shard-epochs it completed
	// drift names every epoch call whose base was not the state the
	// worker had cached for the shard (see Executor).
	drift []string
}

func (f *fakeFleet) next(op string, shard, epoch int) fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := at{op: op, shard: shard, epoch: epoch}
	f.tries[k]++
	k.attempt = f.tries[k] - 1
	return f.faults[k]
}

// fakeExec caches a private copy of each placed state, the way a worker
// process does, so a failed epoch leaves the coordinator's states alone.
type fakeExec struct {
	fleet  *fakeFleet
	id     string
	cache  map[int]*continuous.State
	closed bool
}

// errLinkDown is every scripted link failure.
var errLinkDown = errors.New("connection reset")

type refusedError struct{ msg string }

func (e refusedError) Error() string { return e.msg }
func (e refusedError) Refused() bool { return true }

func cloneState(st *continuous.State) *continuous.State {
	cp, err := DecodeState(cloneBytes(st))
	if err != nil {
		panic(err)
	}
	return cp
}

func cloneBytes(st *continuous.State) []byte {
	blob, err := EncodeState(st)
	if err != nil {
		panic(err)
	}
	return blob
}

func (x *fakeExec) Place(s int, _ continuous.Config, st *continuous.State, owned []int, _ trace.SpanContext) error {
	switch x.fleet.next("place", s, st.Epoch) {
	case failLink:
		return errLinkDown
	case refuse:
		return refusedError{"world spec rejected"}
	case wrongShard:
		return fmt.Errorf("init ack names shard %d, placed shard %d", s+1, s)
	}
	if !slices.Contains(owned, s) {
		return fmt.Errorf("owned set %v does not cover placed shard %d", owned, s)
	}
	x.cache[s] = cloneState(st)
	return nil
}

func (x *fakeExec) Epoch(s, epoch int, base *continuous.State, _ *netmodel.Universe, _ trace.SpanContext) (*continuous.State, continuous.EpochStats, bool, error) {
	var none continuous.EpochStats
	f := x.fleet.next("epoch", s, epoch)
	switch f {
	case failLink:
		return nil, none, false, errLinkDown
	case refuse:
		return nil, none, false, refusedError{"epoch failed"}
	}
	st, ok := x.cache[s]
	if !ok || st.Epoch+1 != epoch {
		return nil, none, false, refusedError{fmt.Sprintf("shard %d cannot run epoch %d here", s, epoch)}
	}
	if a, b := cloneBytes(st), cloneBytes(base); !bytes.Equal(a, b) {
		x.fleet.mu.Lock()
		x.fleet.drift = append(x.fleet.drift, fmt.Sprintf("%s: shard %d epoch %d", x.id, s, epoch))
		x.fleet.mu.Unlock()
	}
	next := cloneState(st)
	next.Epoch = epoch
	owner := s
	if f == foreignKey {
		owner = (s + 1) % x.fleet.shards
	}
	rec := dataset.Record{IP: ownedIP(owner, epoch, x.fleet.shards), Port: 80}
	i, _ := slices.BinarySearchFunc(next.Known, rec.Key(), func(e continuous.Entry, k netmodel.Key) int { return e.Rec.Key().Compare(k) })
	next.Known = slices.Insert(next.Known, i, continuous.Entry{Rec: rec, FirstSeen: epoch, LastSeen: epoch})
	stats := continuous.EpochStats{Epoch: epoch, NewFound: 1, KnownSize: len(next.Known)}
	x.cache[s] = next
	x.fleet.mu.Lock()
	x.fleet.ran[x.id] = append(x.fleet.ran[x.id], epoch)
	x.fleet.mu.Unlock()
	return next, stats, f == askDrain, nil
}

// ownedIP is an address shard s of an n-way split owns, distinct for every
// (s, epoch): where a scripted epoch finds its one new service.
func ownedIP(s, epoch, n int) asndb.IP {
	ip := asndb.IP(s<<16 | epoch)
	for asndb.ShardOf(ip, n) != s {
		ip += 1 << 24
	}
	return ip
}

func (x *fakeExec) Close() error {
	x.closed = true
	return nil
}

// harness is one scripted run: a coordinator over fake workers w0, w1, …
// and what its commit hook saw.
type harness struct {
	t      *testing.T
	c      *Coordinator
	fleet  *fakeFleet
	execs  map[string]*fakeExec
	hooked []int
}

func newHarness(t *testing.T, shards, workers int, faults map[at]fault) *harness {
	h := &harness{
		t:     t,
		c:     NewFleetCoordinator(Config{Shards: shards}, t.Logf),
		fleet: &fakeFleet{shards: shards, faults: faults, tries: make(map[at]int), ran: make(map[string][]int)},
		execs: make(map[string]*fakeExec),
	}
	for i := 0; i < workers; i++ {
		h.admit(fmt.Sprintf("w%d", i))
	}
	h.c.SetCommitHook(func(epoch int, _ map[netmodel.Key]*continuous.Entry) { h.hooked = append(h.hooked, epoch) })
	states := make([]*continuous.State, shards)
	for s := range states {
		states[s] = &continuous.State{}
	}
	if err := h.c.Resume(states); err != nil {
		t.Fatalf("resume: %v", err)
	}
	h.check()
	return h
}

func (h *harness) admit(id string) {
	x := &fakeExec{fleet: h.fleet, id: id, cache: make(map[int]*continuous.State)}
	h.execs[id] = x
	h.c.Admit(id, id+":7600", x)
}

// check holds the invariant every step must preserve: each shard is owned
// by exactly one live worker — in the assignment and in the cluster
// document built from it — a worker out of the fleet was released, and
// no epoch ran from a cached state other than the coordinator's.
func (h *harness) check() {
	h.t.Helper()
	if len(h.fleet.drift) > 0 {
		h.t.Errorf("epochs ran from a base the worker did not hold: %v", h.fleet.drift)
	}
	for s, wi := range h.c.Assignment() {
		if !h.c.workers[wi].alive() {
			h.t.Errorf("shard %d is assigned to %q, which is not alive", s, h.c.workers[wi].id)
		}
	}
	owners := make(map[int][]string)
	for _, w := range h.c.Status().Workers {
		if w.State == WorkerDead || w.State == WorkerDrained {
			if w.ShardCount != 0 {
				h.t.Errorf("%s worker %q still lists shards %v", w.State, w.ID, w.Shards)
			}
			if !h.execs[w.ID].closed {
				h.t.Errorf("%s worker %q was never released", w.State, w.ID)
			}
		}
		for _, s := range w.Shards {
			owners[s] = append(owners[s], w.ID)
		}
	}
	for s := range h.c.Assignment() {
		if len(owners[s]) != 1 {
			h.t.Errorf("shard %d is owned by %v; want exactly one live worker", s, owners[s])
		}
	}
}

func (h *harness) epoch() error {
	h.t.Helper()
	_, err := h.c.Epoch(nil)
	h.check()
	return err
}

func (h *harness) mustEpoch() {
	h.t.Helper()
	if err := h.epoch(); err != nil {
		h.t.Fatalf("epoch %d: %v", h.c.EpochNumber()+1, err)
	}
}

func (h *harness) inventory() []byte {
	h.t.Helper()
	checkDisjoint(h.t, h.c.States())
	inv, _ := h.c.Inventory()
	var buf bytes.Buffer
	if err := WriteInventory(&buf, inv); err != nil {
		h.t.Fatalf("merged inventory: %v", err)
	}
	return buf.Bytes()
}

func (h *harness) state(id string) string {
	for _, w := range h.c.Status().Workers {
		if w.ID == id {
			return w.State
		}
	}
	return "absent"
}

// counts is how many shards each worker owns, in worker order.
func (h *harness) counts() []int {
	var out []int
	for _, w := range h.c.Status().Workers {
		out = append(out, w.ShardCount)
	}
	return out
}

func TestCoordinatorScriptedFaults(t *testing.T) {
	const shards, epochs = 4, 3
	clean := newHarness(t, shards, 2, nil)
	for e := 1; e <= epochs; e++ {
		clean.mustEpoch()
	}
	faultFree := clean.inventory()
	if !reflect.DeepEqual(clean.hooked, []int{1, 2, 3}) {
		t.Fatalf("fault-free hook saw epochs %v; want 1 2 3", clean.hooked)
	}

	// finish runs h to the last epoch and holds it to the fault-free result:
	// same merged bytes, the hook fired once per committed epoch and never
	// on a failed one.
	finish := func(t *testing.T, h *harness) {
		t.Helper()
		for h.c.EpochNumber() < epochs {
			h.mustEpoch()
		}
		if !bytes.Equal(h.inventory(), faultFree) {
			t.Error("merged inventory differs from the fault-free run")
		}
		if !reflect.DeepEqual(h.hooked, []int{1, 2, 3}) {
			t.Errorf("commit hook saw epochs %v; want 1 2 3", h.hooked)
		}
	}

	cases := []struct {
		name    string
		workers int
		faults  map[at]fault
		run     func(t *testing.T, h *harness)
	}{
		{"link failure mid-epoch re-queues to the survivor", 2,
			map[at]fault{{op: "epoch", shard: 0, epoch: 2}: failLink},
			func(t *testing.T, h *harness) {
				h.mustEpoch()
				h.mustEpoch()
				if h.state("w0") != WorkerDead || h.c.AliveWorkers() != 1 {
					t.Errorf("w0 is %s with %d alive; want it dead, one survivor", h.state("w0"), h.c.AliveWorkers())
				}
				// Shards 0 and 2 were w0's: the poisoned link fails both over.
				fails := h.c.Failures()
				if len(fails) != 2 || fails[0].Addr != "w0:7600" || fails[0].Shard != 0 || fails[1].Shard != 2 {
					t.Errorf("failures %v; want w0's shards 0 and 2", fails)
				}
				if !reflect.DeepEqual(h.c.Assignment(), []int{1, 1, 1, 1}) {
					t.Errorf("assignment %v; want every shard on the survivor", h.c.Assignment())
				}
				finish(t, h)
			}},
		{"a placement that dies fails over before the epoch", 2,
			map[at]fault{{op: "place", shard: 1, epoch: 1, attempt: 0}: failLink, {op: "epoch", shard: 1, epoch: 2}: refuse},
			func(t *testing.T, h *harness) {
				h.mustEpoch()
				// The refusal forces a re-placement of every shard at epoch 1;
				// shard 1's dies, so w1 is lost on the retry.
				if err := h.epoch(); err == nil {
					t.Fatal("refused epoch 2 committed")
				}
				h.mustEpoch()
				if h.state("w1") != WorkerDead {
					t.Errorf("w1 is %s; want dead after its placement died", h.state("w1"))
				}
				finish(t, h)
			}},
		{"a refusal aborts the epoch and a retry succeeds", 2,
			map[at]fault{{op: "epoch", shard: 1, epoch: 2, attempt: 0}: refuse},
			func(t *testing.T, h *harness) {
				h.mustEpoch()
				before := h.inventory()
				err := h.epoch()
				var re refusedError
				if !errors.As(err, &re) {
					t.Fatalf("refused epoch returned %v; want the refusal", err)
				}
				if h.c.EpochNumber() != 1 || !bytes.Equal(h.inventory(), before) {
					t.Error("a refused epoch moved the coordinator's states")
				}
				if len(h.c.Failures()) != 0 || h.c.AliveWorkers() != 2 {
					t.Errorf("a refusal cost workers: %v", h.c.Failures())
				}
				finish(t, h)
			}},
		{"a wrong-shard placement ack never re-points the assignment", 1,
			map[at]fault{{op: "place", shard: 3, epoch: 1}: wrongShard},
			func(t *testing.T, h *harness) {
				h.mustEpoch()
				h.admit("liar")
				h.mustEpoch()
				if !reflect.DeepEqual(h.c.Assignment(), []int{0, 0, 0, 0}) {
					t.Errorf("assignment %v; want every shard still on w0", h.c.Assignment())
				}
				if h.state("liar") != WorkerDead {
					t.Errorf("lying joiner is %s; want dead", h.state("liar"))
				}
				finish(t, h)
			}},
		{"every worker dead is a WorkerError", 2,
			map[at]fault{{op: "epoch", shard: 0, epoch: 2}: failLink, {op: "epoch", shard: 1, epoch: 2}: failLink},
			func(t *testing.T, h *harness) {
				h.mustEpoch()
				_, err := h.c.Epoch(nil)
				var we *WorkerError
				if !errors.As(err, &we) {
					t.Fatalf("epoch with no survivors returned %v; want *WorkerError", err)
				}
				if !errors.Is(err, errLinkDown) {
					t.Errorf("WorkerError %v does not unwrap to the link failure", we)
				}
				if h.c.EpochNumber() != 1 || !reflect.DeepEqual(h.hooked, []int{1}) {
					t.Errorf("a failed epoch committed: epoch %d, hook saw %v", h.c.EpochNumber(), h.hooked)
				}
			}},
		{"a drain moves every shard off before the epoch runs", 2, nil,
			func(t *testing.T, h *harness) {
				h.mustEpoch()
				if err := h.c.RequestDrain("w0"); err != nil {
					t.Fatal(err)
				}
				h.mustEpoch()
				if h.state("w0") != WorkerDrained || !reflect.DeepEqual(h.counts(), []int{0, 4}) {
					t.Errorf("w0 is %s, counts %v; want it drained and empty", h.state("w0"), h.counts())
				}
				if ran := h.fleet.ran["w0"]; !reflect.DeepEqual(ran, []int{1, 1}) {
					t.Errorf("w0 ran shard-epochs %v; want none after its drain was requested", ran)
				}
				finish(t, h)
			}},
		{"a worker that asks to drain is drained at the next boundary", 2,
			map[at]fault{{op: "epoch", shard: 1, epoch: 1}: askDrain},
			func(t *testing.T, h *harness) {
				h.mustEpoch()
				if h.state("w1") != WorkerDraining {
					t.Errorf("w1 is %s after reporting draining; want draining", h.state("w1"))
				}
				h.mustEpoch()
				if h.state("w1") != WorkerDrained {
					t.Errorf("w1 is %s a boundary later; want drained", h.state("w1"))
				}
				finish(t, h)
			}},
		{"a drain with no eligible target keeps the shards", 1, nil,
			func(t *testing.T, h *harness) {
				if err := h.c.RequestDrain("w0"); err != nil {
					t.Fatal(err)
				}
				h.mustEpoch()
				if h.state("w0") != WorkerDraining || !reflect.DeepEqual(h.counts(), []int{4}) {
					t.Errorf("w0 is %s, counts %v; want it draining with all four shards", h.state("w0"), h.counts())
				}
				if h.c.RequestDrain("nobody") == nil {
					t.Error("RequestDrain accepted an unknown worker")
				}
				finish(t, h)
			}},
		{"joins level the shard counts", 1, nil,
			func(t *testing.T, h *harness) {
				h.mustEpoch()
				h.admit("j1")
				h.mustEpoch()
				if !reflect.DeepEqual(h.counts(), []int{2, 2}) {
					t.Errorf("counts after one join %v; want 2 2", h.counts())
				}
				h.admit("j2")
				h.mustEpoch()
				if c := h.counts(); c[0]+c[1]+c[2] != 4 || c[2] != 1 {
					t.Errorf("counts after two joins %v; want the second joiner to hold one of four", c)
				}
				finish(t, h)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newHarness(t, shards, tc.workers, tc.faults))
		})
	}
}

// TestEpochRefusesForeignKeys: a worker's state is outside input, and one
// holding a key its shard does not own fails the call like a broken link.
// With no other worker to retry on, the epoch errors, naming the owner,
// and nothing is committed: the coordinator keeps its pre-epoch states.
func TestEpochRefusesForeignKeys(t *testing.T) {
	h := newHarness(t, 2, 1, map[at]fault{{op: "epoch", shard: 1, epoch: 1}: foreignKey})
	before := slices.Clone(h.c.States())
	_, err := h.c.Epoch(nil)
	if err == nil || !strings.Contains(err.Error(), "which shard 0 owns") {
		t.Fatalf("epoch returned %v; want a refusal of shard 1's foreign key", err)
	}
	if !slices.Equal(h.c.States(), before) || h.c.EpochNumber() != 0 || len(h.hooked) != 0 {
		t.Errorf("a refused epoch moved the coordinator to epoch %d (hook saw %v)", h.c.EpochNumber(), h.hooked)
	}
}

// TestCoordinatorInProcessRefusal: an in-process epoch builds new states
// and never writes the placed ones, so a refused epoch leaves every
// coordinator state as it was, beside a fleet worker as much as alone,
// and a retry lands where an all-local run does.
func TestCoordinatorInProcessRefusal(t *testing.T) {
	u, seedSet := testWorld(t, 19)
	world := netmodel.Churn(u, netmodel.DefaultChurn(101))
	cfg := coordConfig(2)
	states := func(c *Coordinator) [][]byte {
		var out [][]byte
		for s, st := range c.States() {
			blob, err := EncodeState(st)
			if err != nil {
				t.Fatalf("shard %d: %v", s, err)
			}
			out = append(out, blob)
		}
		return out
	}

	// Shard 0 runs in process, shard 1 on a fake worker that refuses it.
	c := NewFleetCoordinator(cfg, t.Logf)
	c.Admit("local", "", &localExecutor{runners: make(map[int]*continuous.Runner)})
	fleet := &fakeFleet{shards: 2, faults: map[at]fault{{op: "epoch", shard: 1, epoch: 1}: refuse},
		tries: make(map[at]int), ran: make(map[string][]int)}
	c.Admit("fake", "fake:7600", &fakeExec{fleet: fleet, id: "fake", cache: make(map[int]*continuous.State)})
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	before := states(c)
	if _, err := c.Epoch(world); !refused(err) {
		t.Fatalf("epoch 1 returned %v; want the fake worker's refusal", err)
	}
	for s, blob := range states(c) {
		if !bytes.Equal(blob, before[s]) {
			t.Errorf("shard %d state changed by a refused epoch (epoch 1)", s)
		}
	}

	// Drain the fake worker, so the retry runs every shard in process.
	if err := c.RequestDrain("fake"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Epoch(world); err != nil {
		t.Fatalf("retried epoch 1: %v", err)
	}
	local := NewCoordinator(seedSet, cfg)
	if _, err := local.Epoch(world); err != nil {
		t.Fatal(err)
	}
	want := states(local)
	for s, blob := range states(c) {
		if !bytes.Equal(blob, want[s]) {
			t.Errorf("shard %d after the retry differs from the all-local run", s)
		}
	}
}

// TestLocalExecutorRefusal: a local epoch that errors (here a shard index
// the pipeline rejects) is a refusal, which unwraps to the epoch's error.
func TestLocalExecutorRefusal(t *testing.T) {
	u, seedSet := testWorld(t, 19)
	x := &localExecutor{runners: make(map[int]*continuous.Runner)}
	cfg := coordConfig(2).Continuous
	st := continuous.SeedState(seedSet, cfg) // unsharded: a non-empty state
	cfg.ShardIndex, cfg.ShardCount = 2, 2
	if err := x.Place(2, cfg, st, []int{2}, trace.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := x.Epoch(2, 1, st, u, trace.SpanContext{})
	var r refusal
	if !errors.As(err, &r) || !r.Refused() || !refused(err) {
		t.Fatalf("local epoch returned %v; want a refusal", err)
	}
	if inner := errors.Unwrap(r); inner == nil || !strings.Contains(inner.Error(), "shard index 2 out of range") {
		t.Errorf("refusal unwraps to %v; want the pipeline's shard-index error", inner)
	}
	if x.runners[2].State() != st {
		t.Error("a refused local epoch moved its runner off the placed state")
	}
}

// TestMergeStatsBoundingShard: concurrent shards' phases do not add. The
// merged phases are the slowest shard's — so they fit inside its wall
// time — while counters and freshness still sum.
func TestMergeStatsBoundingShard(t *testing.T) {
	phases := func(ms time.Duration) continuous.PhaseTimes {
		return continuous.PhaseTimes{Reverify: ms * time.Millisecond, Retrain: 2 * ms * time.Millisecond,
			Discover: 3 * ms * time.Millisecond, Fold: ms * time.Millisecond}
	}
	stats := []continuous.EpochStats{
		{Epoch: 4, Verified: 10, NewFound: 1, ReverifyProbes: 100, KnownSize: 11, Phases: phases(5)},
		{Epoch: 4, Verified: 20, NewFound: 2, ReverifyProbes: 200, KnownSize: 22, Phases: phases(9)},
		{Epoch: 4, Verified: 30, NewFound: 3, ReverifyProbes: 300, KnownSize: 33, Phases: phases(7)},
	}
	stats[1].Freshness.Alive, stats[2].Freshness.Alive = 20, 30
	wall := []time.Duration{40 * time.Millisecond, 70 * time.Millisecond, 55 * time.Millisecond}
	m := MergeStats(stats, wall)

	want := phases(9)
	want.Shard = 1
	if m.Phases != want {
		t.Errorf("merged phases %+v; want the slowest shard's %+v", m.Phases, want)
	}
	if sum := m.Phases.Reverify + m.Phases.Retrain + m.Phases.Discover + m.Phases.Fold; sum > wall[1] {
		t.Errorf("merged phases sum to %v, more than the bounding shard's wall time %v", sum, wall[1])
	}
	if m.Epoch != 4 || m.Verified != 60 || m.NewFound != 6 || m.ReverifyProbes != 600 || m.KnownSize != 66 || m.Freshness.Alive != 50 {
		t.Errorf("merged counters %+v; want the sums", m)
	}
}
