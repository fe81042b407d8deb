package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
	"gps/internal/shard"
)

// simWorld is the test World: a deterministic universe from TestParams,
// with epoch e's churn seeded seed+e — the exact recipe the in-process
// reference below uses, so both sides scan identical worlds. It builds
// only the partition the coordinator's spec envelope says this worker
// owns: the in-process reference runs against the full universe, so the
// byte-identical gates below also prove partitioned == full-restricted
// end to end.
type simWorld struct {
	p     netmodel.Params
	epoch int
	u     *netmodel.Universe
}

func newSimWorld(spec []byte) (World, error) {
	base, shards, owned, err := DecodeWorldSpec(spec)
	if err != nil {
		return nil, err
	}
	if len(base) != 8 {
		return nil, fmt.Errorf("sim world spec is %d bytes, want 8", len(base))
	}
	seed := int64(binary.BigEndian.Uint64(base))
	p := netmodel.TestParams(seed)
	p.Partition = &netmodel.Partition{Count: shards, Owned: owned}
	u, err := netmodel.GenerateChecked(p)
	if err != nil {
		return nil, err
	}
	return &simWorld{p: p, u: u}, nil
}

func (w *simWorld) UniverseAt(e int) (*netmodel.Universe, error) {
	if e < w.epoch {
		w.u, w.epoch = netmodel.Generate(w.p), 0
	}
	for w.epoch < e {
		w.epoch++
		w.u = netmodel.Churn(w.u, netmodel.DefaultChurn(w.p.Seed+int64(w.epoch)))
	}
	return w.u, nil
}

func worldSpec(seed int64) []byte {
	spec := make([]byte, 8)
	binary.BigEndian.PutUint64(spec, uint64(seed))
	return spec
}

// testWorker is one worker process stand-in: a Serve loop whose listener
// and live connections the test can kill to simulate a crash.
type testWorker struct {
	lis   net.Listener
	done  chan struct{}
	mu    sync.Mutex
	conns []net.Conn
}

type trackingListener struct {
	net.Listener
	tw *testWorker
}

func (l *trackingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.tw.mu.Lock()
		l.tw.conns = append(l.tw.conns, conn)
		l.tw.mu.Unlock()
	}
	return conn, err
}

func startWorker(t *testing.T) *testWorker {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tw := &testWorker{lis: lis, done: make(chan struct{})}
	go func() {
		defer close(tw.done)
		Serve(&trackingListener{Listener: lis, tw: tw}, newSimWorld, nil)
	}()
	t.Cleanup(func() { tw.kill() })
	return tw
}

func (tw *testWorker) addr() string { return tw.lis.Addr().String() }

// kill closes the listener and every live connection: the worker is gone
// mid-stream, as a crashed process would be.
func (tw *testWorker) kill() {
	tw.lis.Close()
	tw.mu.Lock()
	for _, c := range tw.conns {
		c.Close()
	}
	tw.conns = nil
	tw.mu.Unlock()
	<-tw.done
}

// testSeed builds the universe's seed split, mirroring the shard package
// tests.
func testSeed(seed int64) (*netmodel.Universe, *dataset.Dataset) {
	u := netmodel.Generate(netmodel.TestParams(seed))
	full := dataset.SnapshotLZR(u, 0.3, seed^0x11)
	seedSet, _ := full.Split(0.04, seed^0x22)
	return u, seedSet.FilterPorts(seedSet.EligiblePorts(2))
}

func testConfig(n int) shard.Config {
	return shard.Config{
		Shards: n,
		Continuous: continuous.Config{
			Budget:   50000,
			Pipeline: pipeline.Config{Workers: 1, Seed: 7},
		},
	}
}

// inProcessRun drives the reference in-process coordinator for the given
// epochs and returns its states and each epoch's merged stats.
func inProcessRun(t *testing.T, worldSeed int64, n, epochs int) ([]*continuous.State, []continuous.EpochStats) {
	t.Helper()
	u, seedSet := testSeed(worldSeed)
	c := shard.NewCoordinator(seedSet, testConfig(n))
	world := u
	var stats []continuous.EpochStats
	for e := 1; e <= epochs; e++ {
		world = netmodel.Churn(world, netmodel.DefaultChurn(worldSeed+int64(e)))
		st, err := c.Epoch(world)
		if err != nil {
			t.Fatalf("in-process epoch %d: %v", e, err)
		}
		stats = append(stats, st)
	}
	return c.States(), stats
}

func stateBytes(t *testing.T, states []*continuous.State) []byte {
	t.Helper()
	var out []byte
	for _, st := range states {
		blob, err := shard.EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blob...)
	}
	return out
}

func inventoryBytes(t *testing.T, states []*continuous.State) []byte {
	t.Helper()
	inv := shard.MergeInventories(states)
	var buf bytes.Buffer
	if err := shard.WriteInventory(&buf, inv); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testOptions() *Options {
	return &Options{Timeout: 30 * time.Second, DialTimeout: 5 * time.Second}
}

// TestTransportDistributedMatchesInProcess is the acceptance gate: a
// 4-worker distributed run over the test universe must produce per-shard
// states — and therefore a merged inventory — byte-identical to the
// 1-process, 4-shard coordinator run.
func TestTransportDistributedMatchesInProcess(t *testing.T) {
	const worldSeed, n, epochs = 21, 4, 3

	var addrs []string
	for i := 0; i < n; i++ {
		addrs = append(addrs, startWorker(t).addr())
	}
	c, err := Dial(addrs, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The serving layer hangs off this hook; it must observe every
	// committed epoch in order with the post-commit merged inventory.
	var hookEpochs []int
	var hookInv map[netmodel.Key]*continuous.Entry
	c.SetCommitHook(func(epoch int, inv map[netmodel.Key]*continuous.Entry) {
		hookEpochs = append(hookEpochs, epoch)
		hookInv = inv
	})

	_, seedSet := testSeed(worldSeed)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	ref, refStats := inProcessRun(t, worldSeed, n, epochs)
	for e := 1; e <= epochs; e++ {
		stats, err := c.Epoch()
		if err != nil {
			t.Fatalf("distributed epoch %d: %v", e, err)
		}
		if stats.Epoch != e || c.EpochNumber() != e {
			t.Errorf("epoch counters %d/%d; want %d", stats.Epoch, c.EpochNumber(), e)
		}
		// An epoch's stats reach the coordinator only on its result
		// frame: phases from the bounding shard, and every counter equal
		// to the in-process run's (phases are wall clock, so left out).
		if p := stats.Phases; p.Reverify <= 0 || p.Retrain <= 0 || p.Discover <= 0 || p.Fold <= 0 || p.Shard < 0 || p.Shard >= n {
			t.Errorf("epoch %d merged phases %+v; want the bounding shard's non-zero split", e, p)
		}
		got, want := stats, refStats[e-1]
		got.Phases, want.Phases = continuous.PhaseTimes{}, continuous.PhaseTimes{}
		if got != want {
			t.Errorf("epoch %d merged counters differ from the in-process run:\n got %+v\nwant %+v", e, got, want)
		}
	}
	if len(hookEpochs) != epochs || hookEpochs[0] != 1 || hookEpochs[epochs-1] != epochs {
		t.Errorf("commit hook saw epochs %v; want 1..%d", hookEpochs, epochs)
	}
	var hookBytes bytes.Buffer
	if err := shard.WriteInventory(&hookBytes, hookInv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hookBytes.Bytes(), inventoryBytes(t, c.States())) {
		t.Error("final commit-hook inventory differs from the merged states")
	}

	if !bytes.Equal(stateBytes(t, c.States()), stateBytes(t, ref)) {
		t.Error("distributed shard states differ from the in-process run")
	}
	if !bytes.Equal(inventoryBytes(t, c.States()), inventoryBytes(t, ref)) {
		t.Error("distributed merged inventory differs from the in-process run")
	}
	if len(c.Failures()) != 0 {
		t.Errorf("healthy run recorded failures: %v", c.Failures())
	}
}

// TestTransportWorkerFailureRequeues kills one of two workers between
// epochs: the next epoch must succeed with the dead worker's shards
// re-queued to the survivor, the failure must surface as a typed
// *WorkerError, and the final states must still match the in-process run
// (re-running a shard's epoch elsewhere is deterministic).
func TestTransportWorkerFailureRequeues(t *testing.T) {
	const worldSeed, n, epochs = 21, 4, 2

	w0, w1 := startWorker(t), startWorker(t)
	c, err := Dial([]string{w0.addr(), w1.addr()}, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, seedSet := testSeed(worldSeed)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}

	w0.kill()
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 2 after worker death: %v", err)
	}
	if c.AliveWorkers() != 1 {
		t.Errorf("AliveWorkers = %d; want 1", c.AliveWorkers())
	}
	fails := c.Failures()
	if len(fails) == 0 {
		t.Fatal("worker death recorded no failures")
	}
	var we *WorkerError
	if !errors.As(error(fails[0]), &we) || we.Addr != w0.addr() {
		t.Errorf("failure = %v; want *WorkerError from %s", fails[0], w0.addr())
	}
	// Every shard now lives on the survivor.
	for s, wi := range c.Assignment() {
		if c.WorkerAddrs()[wi] != w1.addr() {
			t.Errorf("shard %d still assigned to %s", s, c.WorkerAddrs()[wi])
		}
	}

	ref, _ := inProcessRun(t, worldSeed, n, epochs)
	if !bytes.Equal(inventoryBytes(t, c.States()), inventoryBytes(t, ref)) {
		t.Error("post-failover inventory differs from the in-process run")
	}
}

// TestTransportAllWorkersDead: with no survivor to take the re-queued
// shard, Epoch must return a typed error promptly — not hang.
func TestTransportAllWorkersDead(t *testing.T) {
	const worldSeed = 21
	w := startWorker(t)
	opts := testOptions()
	opts.Timeout = 2 * time.Second
	c, err := Dial([]string{w.addr()}, testConfig(2), worldSpec(worldSeed), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, seedSet := testSeed(worldSeed)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	w.kill()

	done := make(chan error, 1)
	go func() {
		_, err := c.Epoch()
		done <- err
	}()
	select {
	case err := <-done:
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("Epoch with no live workers returned %v; want *WorkerError", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Epoch hung after all workers died")
	}
}

// A deterministic remote rejection (here: a world spec the worker's
// factory refuses) must abort the operation with the remote cause — not
// cascade into marking healthy workers dead and re-queueing a request
// that would fail identically everywhere.
func TestTransportRemoteRejectionDoesNotCascade(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(lis, func(spec []byte) (World, error) {
			return nil, errors.New("unsupported world")
		}, nil)
	}()
	defer func() {
		lis.Close()
		<-done
	}()

	c, err := Dial([]string{lis.Addr().String()}, testConfig(2), worldSpec(21), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, seedSet := testSeed(21)
	err = c.Seed(seedSet)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("Seed against a rejecting factory returned %v; want a *RemoteError cause", err)
	}
	if c.AliveWorkers() != 1 {
		t.Errorf("AliveWorkers = %d after a request-level rejection; the healthy worker was torn down", c.AliveWorkers())
	}
}

// flakyWorld is a World whose UniverseAt fails the first time any of its
// instances is asked for epoch failAt.
type flakyWorld struct {
	World
	failAt int
	failed *atomic.Bool
}

func (w flakyWorld) UniverseAt(e int) (*netmodel.Universe, error) {
	if e == w.failAt && w.failed.CompareAndSwap(false, true) {
		return nil, errors.New("universe unavailable")
	}
	return w.World.UniverseAt(e)
}

// TestTransportEpochRefusalOverTheWire: a worker that refuses an epoch
// (its world fails to advance) aborts it with the remote cause. The
// coordinator's states stay byte-identical, no worker is declared dead,
// and the retried epoch ends where the in-process run does.
func TestTransportEpochRefusalOverTheWire(t *testing.T) {
	const worldSeed, n = 21, 4
	failed := new(atomic.Bool)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(lis, func(spec []byte) (World, error) {
			w, err := newSimWorld(spec)
			return flakyWorld{World: w, failAt: 2, failed: failed}, err
		}, nil)
	}()
	defer func() {
		lis.Close()
		<-done
	}()

	c, err := Dial([]string{startWorker(t).addr(), lis.Addr().String()}, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, seedSet := testSeed(worldSeed)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	before := stateBytes(t, c.States())

	_, err = c.Epoch()
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("epoch 2 with a refusing worker returned %v; want a *RemoteError cause", err)
	}
	if !bytes.Equal(stateBytes(t, c.States()), before) {
		t.Error("a refused epoch moved the coordinator's states")
	}
	if c.AliveWorkers() != 2 || len(c.Failures()) != 0 {
		t.Errorf("after a refusal: %d alive workers, failures %v; want 2 and none", c.AliveWorkers(), c.Failures())
	}

	if _, err := c.Epoch(); err != nil {
		t.Fatalf("retried epoch 2: %v", err)
	}
	ref, _ := inProcessRun(t, worldSeed, n, 2)
	if !bytes.Equal(stateBytes(t, c.States()), stateBytes(t, ref)) {
		t.Error("retried epoch's states differ from the in-process run")
	}
}

// dropResultListener is a worker's listener whose connections cut
// themselves instead of writing the worker's dropAt-th epoch result
// frame (counted from 1 over every connection it accepted): the worker
// ran the epoch, and its result never reaches the coordinator.
type dropResultListener struct {
	net.Listener
	results atomic.Int32
	dropAt  int32
}

func (l *dropResultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &dropResultConn{Conn: conn, l: l}, nil
}

type dropResultConn struct {
	net.Conn
	l *dropResultListener
}

func (c *dropResultConn) Write(p []byte) (int, error) {
	// writeFrame writes each frame's header on its own.
	if len(p) == frameOverhead && p[0] == msgEpochResult && c.l.results.Add(1) == c.l.dropAt {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// adoptLog is a worker's log of the placements it adopted.
type adoptLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *adoptLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// adopted reports whether the worker adopted shard s of n at epoch.
func (l *adoptLog) adopted(s, n, epoch int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	want := fmt.Sprintf("adopted shard %d/%d at epoch %d ", s, n, epoch)
	return slices.ContainsFunc(l.lines, func(line string) bool { return strings.Contains(line, want) })
}

// serveOn runs a worker on lis, logging to log, until the test ends.
func serveOn(t *testing.T, lis net.Listener, factory WorldFactory, log *adoptLog) string {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(lis, factory, &WorkerOptions{Logf: log.logf})
	}()
	t.Cleanup(func() {
		lis.Close()
		<-done
	})
	return lis.Addr().String()
}

// TestTransportLostResultReplaces: a worker that ran shard s's epoch but
// whose result the coordinator never committed holds a runner past the
// coordinator's state for s. An epoch result is only the step from that
// state, so the shard must be placed again from the coordinator's state
// before it runs another epoch — the worker's advanced runner must not
// become the next base. Whether the result was lost with the connection
// or the epoch was aborted by another shard's refusal, the survivor (or
// the same worker) adopts s at the pre-epoch state again, and the merged
// inventory stays byte-identical to the fault-free run.
func TestTransportLostResultReplaces(t *testing.T) {
	const worldSeed, n, epochs = 21, 4, 3
	listen := func() net.Listener {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return lis
	}
	run := func(t *testing.T, addrs []string, wantFail bool) *Coordinator {
		t.Helper()
		c, err := Dial(addrs, testConfig(n), worldSpec(worldSeed), testOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		_, seedSet := testSeed(worldSeed)
		if err := c.Seed(seedSet); err != nil {
			t.Fatal(err)
		}
		for e := 1; e <= epochs; e++ {
			_, err := c.Epoch()
			var re *RemoteError
			if wantFail && e == 2 {
				if !errors.As(err, &re) {
					t.Fatalf("epoch 2 returned %v; want it refused", err)
				}
				_, err = c.Epoch()
			}
			if err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
		}
		ref, _ := inProcessRun(t, worldSeed, n, epochs)
		if !bytes.Equal(inventoryBytes(t, c.States()), inventoryBytes(t, ref)) {
			t.Error("merged inventory differs from the fault-free run")
		}
		return c
	}

	t.Run("connection drops", func(t *testing.T) {
		// The first worker owns shards 0 and 2 and runs them in that
		// order: its third result is shard 0's at epoch 2.
		var dropLog, survivorLog adoptLog
		dropper := &dropResultListener{Listener: listen(), dropAt: 3}
		c := run(t, []string{serveOn(t, dropper, newSimWorld, &dropLog), serveOn(t, listen(), newSimWorld, &survivorLog)}, false)
		var de *DisconnectError
		if f := c.Failures(); len(f) == 0 || f[0].Shard != 0 || !errors.As(f[0].Err, &de) {
			t.Fatalf("failures = %v; want a *DisconnectError on shard 0 first", f)
		}
		for _, s := range []int{0, 2} {
			if !survivorLog.adopted(s, n, 1) {
				t.Errorf("the survivor never adopted shard %d at epoch 1", s)
			}
		}
	})

	t.Run("another shard refuses", func(t *testing.T) {
		// The second worker refuses its first epoch 2 (shard 1) after the
		// first has run shards 0 and 2 to epoch 2.
		var healthyLog, flakyLog adoptLog
		failed := new(atomic.Bool)
		flaky := func(spec []byte) (World, error) {
			w, err := newSimWorld(spec)
			return flakyWorld{World: w, failAt: 2, failed: failed}, err
		}
		c := run(t, []string{serveOn(t, listen(), newSimWorld, &healthyLog), serveOn(t, listen(), flaky, &flakyLog)}, true)
		if len(c.Failures()) != 0 {
			t.Errorf("a refusal declared workers dead: %v", c.Failures())
		}
		for _, s := range []int{0, 2} {
			if !healthyLog.adopted(s, n, 1) {
				t.Errorf("the worker that ran shard %d's aborted epoch never adopted it at epoch 1 again", s)
			}
		}
	})
}

// TestTransportBadWorldSpecRejected: a crafted or corrupt world spec
// must surface as a typed `world spec rejected` RemoteError — and the
// worker must survive to serve a good spec afterwards, not die mid-init.
func TestTransportBadWorldSpecRejected(t *testing.T) {
	w := startWorker(t)
	_, seedSet := testSeed(21)

	for _, bad := range [][]byte{
		[]byte("bogus"),   // not even 8 bytes of seed
		make([]byte, 3),   // truncated
		make([]byte, 100), // wrong length entirely
	} {
		c, err := Dial([]string{w.addr()}, testConfig(2), bad, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		err = c.Seed(seedSet)
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("Seed with bad spec %q returned %v; want *RemoteError", bad, err)
		}
		if !bytes.Contains([]byte(re.Msg), []byte("world spec rejected")) {
			t.Errorf("rejection %q does not say 'world spec rejected'", re.Msg)
		}
		c.Close()
	}

	// The worker process must still be alive and fully functional.
	c, err := Dial([]string{w.addr()}, testConfig(2), worldSpec(21), testOptions())
	if err != nil {
		t.Fatalf("worker did not survive bad specs: %v", err)
	}
	defer c.Close()
	if err := c.Seed(seedSet); err != nil {
		t.Fatalf("good seed after bad specs: %v", err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch after bad specs: %v", err)
	}
}

// TestTransportFactoryPanicContained: a factory that panics on a spec
// (the old netmodel.Generate behavior on invalid params) must produce a
// reject frame, not a dead worker process.
func TestTransportFactoryPanicContained(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var calls atomic.Int32
	go func() {
		defer close(done)
		Serve(lis, func(spec []byte) (World, error) {
			if calls.Add(1) == 1 {
				panic("corrupt spec blew up the generator")
			}
			return newSimWorld(spec)
		}, nil)
	}()
	defer func() {
		lis.Close()
		<-done
	}()

	c, err := Dial([]string{lis.Addr().String()}, testConfig(1), worldSpec(21), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, seedSet := testSeed(21)
	err = c.Seed(seedSet)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("Seed against a panicking factory returned %v; want *RemoteError", err)
	}
	c.Close()

	// Second session: the worker survived the panic and serves normally.
	c2, err := Dial([]string{lis.Addr().String()}, testConfig(1), worldSpec(21), testOptions())
	if err != nil {
		t.Fatalf("worker did not survive the factory panic: %v", err)
	}
	defer c2.Close()
	if err := c2.Seed(seedSet); err != nil {
		t.Fatalf("seed after factory panic: %v", err)
	}
}

// TestTransportRequeueRebuildsWorld: when a dead worker's shards land on
// a survivor, the survivor's session sees a grown spec and rebuilds its
// world through the factory — two session builds plus one for the grown
// spec — and the result still matches the in-process run byte for byte.
func TestTransportRequeueRebuildsWorld(t *testing.T) {
	const worldSeed, n, epochs = 21, 4, 2

	var builds atomic.Int32
	factory := func(spec []byte) (World, error) {
		builds.Add(1)
		return newSimWorld(spec)
	}
	start := func() *testWorker {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tw := &testWorker{lis: lis, done: make(chan struct{})}
		go func() {
			defer close(tw.done)
			Serve(&trackingListener{Listener: lis, tw: tw}, factory, nil)
		}()
		t.Cleanup(func() { tw.kill() })
		return tw
	}

	w0, w1 := start(), start()
	c, err := Dial([]string{w0.addr(), w1.addr()}, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, seedSet := testSeed(worldSeed)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	w0.kill()
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 2 after worker death: %v", err)
	}

	if got := builds.Load(); got != 3 {
		t.Errorf("factory built %d worlds; want 3 (one per worker session, one for the survivor's grown spec)", got)
	}
	ref, _ := inProcessRun(t, worldSeed, n, epochs)
	if !bytes.Equal(inventoryBytes(t, c.States()), inventoryBytes(t, ref)) {
		t.Error("post-rebuild inventory differs from the in-process run")
	}
}

func TestTransportEpochBeforeSeed(t *testing.T) {
	w := startWorker(t)
	c, err := Dial([]string{w.addr()}, testConfig(1), worldSpec(21), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Epoch(); err == nil {
		t.Error("Epoch before Seed/Resume succeeded")
	}
}

// TestTransportResume round-trips a distributed run through a checkpointed
// merged run: resuming a fresh fleet from epoch-1 states and running epoch 2
// must equal the uninterrupted two-epoch run.
func TestTransportResume(t *testing.T) {
	const worldSeed, n = 21, 2

	// Uninterrupted reference.
	ref, _ := inProcessRun(t, worldSeed, n, 2)

	// Distributed: one epoch, checkpoint, new coordinator + fleet, resume.
	w := startWorker(t)
	c, err := Dial([]string{w.addr()}, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, seedSet := testSeed(worldSeed)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatal(err)
	}
	run, err := shard.Merge(c.States())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	mid, err := shard.EncodeState(run)
	if err != nil {
		t.Fatal(err)
	}
	if run, err = shard.DecodeState(mid); err != nil {
		t.Fatal(err)
	}
	states := shard.Partition(run, n)
	w2 := startWorker(t)
	c2, err := Dial([]string{w2.addr()}, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Resume(states); err != nil {
		t.Fatal(err)
	}
	if c2.EpochNumber() != 1 {
		t.Fatalf("resumed at epoch %d; want 1", c2.EpochNumber())
	}
	if _, err := c2.Epoch(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, c2.States()), stateBytes(t, ref)) {
		t.Error("resumed distributed run differs from the uninterrupted reference")
	}
}

// lyingWorker is a hand-rolled worker that takes every placement and
// acks it under the next shard's name. It never decodes the payload
// beyond the shard index, so it adopts nothing.
func lyingWorker(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if writeHandshake(conn) != nil || readHandshake(conn) != nil {
			return
		}
		for {
			typ, payload, err := readFrame(conn)
			if err != nil || typ != msgInit {
				return
			}
			m, err := decodeInit(payload)
			if err != nil {
				return
			}
			if writeFrame(conn, msgInitOK, encodeShardAck(m.Shard+1)) != nil {
				return
			}
		}
	}()
	return lis
}

// TestTransportInitAckNamesWrongShard: the init ack carries the shard the
// worker adopted, and a placement only counts when it names the shard
// that was placed. A worker that acks another shard has broken protocol:
// it must end up dead with the shard re-queued to a survivor, never
// owning it on the strength of an ack for something else.
func TestTransportInitAckNamesWrongShard(t *testing.T) {
	const worldSeed, n = 21, 2

	liar, honest := lyingWorker(t), startWorker(t)
	liarAddr := liar.Addr().String()
	c, err := Dial([]string{liarAddr, honest.addr()}, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Resume rather than Seed so the same test drives any protocol
	// version: both place shards with msgInit.
	_, seedSet := testSeed(worldSeed)
	if err := c.Resume(shard.NewCoordinator(seedSet, testConfig(n)).States()); err != nil {
		t.Fatalf("Resume with one lying worker: %v", err)
	}
	if c.AliveWorkers() != 1 {
		t.Fatalf("AliveWorkers = %d; the worker that acked the wrong shard is still trusted", c.AliveWorkers())
	}
	for s, wi := range c.Assignment() {
		if c.WorkerAddrs()[wi] != honest.addr() {
			t.Errorf("shard %d is assigned to %s; want the honest worker", s, c.WorkerAddrs()[wi])
		}
	}
	fails := c.Failures()
	var de *DisconnectError
	if len(fails) != 1 || fails[0].Addr != liarAddr || fails[0].Shard != 0 || !errors.As(fails[0].Err, &de) {
		t.Fatalf("failures = %v; want one *DisconnectError from %s on shard 0", fails, liarAddr)
	}

	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 1 on the survivor: %v", err)
	}
	for _, w := range c.Status().Workers {
		if w.ID == liarAddr && (w.State != shard.WorkerDead || w.ShardCount != 0) {
			t.Errorf("lying worker = %+v; want dead, owning nothing", w)
		}
	}
	ref, _ := inProcessRun(t, worldSeed, n, 1)
	if !bytes.Equal(inventoryBytes(t, c.States()), inventoryBytes(t, ref)) {
		t.Error("inventory after re-queueing off the lying worker differs from the in-process run")
	}
}

// TestTransportSeedIsResume is the oracle for Seed being "build the
// per-shard states, then Resume": a seeded shard's epoch-0 state survives
// the state codec bit for bit, and a runner resumed from the decoded
// state runs epoch 1 to the same bytes as the runner seeded directly —
// so it does not matter that workers now receive the state, not the seed.
func TestTransportSeedIsResume(t *testing.T) {
	for _, worldSeed := range []int64{21, 22, 23} {
		u, seedSet := testSeed(worldSeed)
		world := netmodel.Churn(u, netmodel.DefaultChurn(worldSeed+1))
		for _, n := range []int{1, 2, 4, 8} {
			cfg := testConfig(n)
			budgets := shard.SliceBudget(cfg.Continuous.Budget, n)
			shardCfg := func(s int) continuous.Config {
				sc := cfg.Continuous
				sc.Budget = budgets[s]
				sc.ShardIndex, sc.ShardCount = s, n
				return sc
			}
			for s := 0; s < n; s++ {
				seeded := continuous.New(seedSet, shardCfg(s))
				blob, err := shard.EncodeState(seeded.State())
				if err != nil {
					t.Fatal(err)
				}
				st, err := shard.DecodeState(blob)
				if err != nil {
					t.Fatalf("seed %d, shard %d/%d: decoding the seeded state: %v", worldSeed, s, n, err)
				}
				if again, err := shard.EncodeState(st); err != nil || !bytes.Equal(again, blob) {
					t.Fatalf("seed %d, shard %d/%d: seeded state is not canonical across the codec (%v)", worldSeed, s, n, err)
				}
				resumed := continuous.Resume(st, shardCfg(s))
				for _, r := range []*continuous.Runner{seeded, resumed} {
					if _, err := r.Epoch(world); err != nil {
						t.Fatalf("seed %d, shard %d/%d: epoch 1: %v", worldSeed, s, n, err)
					}
				}
				a, _ := shard.EncodeState(seeded.State())
				b, _ := shard.EncodeState(resumed.State())
				if !bytes.Equal(a, b) {
					t.Errorf("seed %d, shard %d/%d: resumed runner's epoch-1 state differs from the seeded runner's", worldSeed, s, n)
				}
			}
		}
	}
}
