package main

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gps"
	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/shard"
	"gps/internal/shard/transport"
)

// testWorker is a demo-world shard worker on a loopback listener; cut
// closes the listener and every connection it accepted, as a crashed
// worker process would.
type testWorker struct {
	net.Listener
	done  chan struct{}
	mu    sync.Mutex
	conns []net.Conn
}

func (w *testWorker) Accept() (net.Conn, error) {
	conn, err := w.Listener.Accept()
	if err == nil {
		w.mu.Lock()
		w.conns = append(w.conns, conn)
		w.mu.Unlock()
	}
	return conn, err
}

func (w *testWorker) addr() string { return w.Addr().String() }

func (w *testWorker) cut() {
	w.Close()
	w.mu.Lock()
	for _, c := range w.conns {
		c.Close()
	}
	w.conns = nil
	w.mu.Unlock()
	<-w.done
}

// serveTestWorker runs a demo-world shard worker until the test ends or
// it is cut.
func serveTestWorker(t *testing.T) *testWorker {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorker{Listener: lis, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		transport.Serve(w, newDemoWorld, nil)
	}()
	t.Cleanup(w.cut)
	return w
}

// inventoryBytes is the merged inventory as -inventory writes it.
func inventoryBytes(t *testing.T, states []*continuous.State) []byte {
	t.Helper()
	inv := shard.MergeInventories(states)
	var buf bytes.Buffer
	if err := shard.WriteInventory(&buf, inv); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFailoverOnDemoWorld: a worker whose connection is cut after epoch 1
// hands its shards to the survivor, which rebuilds its demo-world
// partition through newDemoWorld for the grown spec. The merged
// inventory after epochs 2 and 3 must equal the in-process run on the
// same flags byte for byte.
func TestFailoverOnDemoWorld(t *testing.T) {
	const epochs = 3
	f, err := parseArgs([]string{"-prefixes", "4", "-density", "0.02", "-shards", "4", "-parallelism", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	full, err := generateDemoWorld(f.world(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seedSet := collectSeedSet(full.u, f)

	w0, w1 := serveTestWorker(t), serveTestWorker(t)
	dist, err := transport.Dial([]string{w0.addr(), w1.addr()}, f.shardConfig(), f.world().header(),
		&transport.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	if err := dist.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	ref := shard.NewCoordinator(seedSet, f.shardConfig())
	for e := 1; e <= epochs; e++ {
		if e == 2 {
			w0.cut()
		}
		if _, err := dist.Epoch(); err != nil {
			t.Fatalf("distributed epoch %d: %v", e, err)
		}
		u, err := full.UniverseAt(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Epoch(u); err != nil {
			t.Fatalf("in-process epoch %d: %v", e, err)
		}
	}
	if len(dist.Failures()) == 0 || dist.AliveWorkers() != 1 {
		t.Fatalf("cutting a worker left %d failures and %d live workers; want a failover onto 1",
			len(dist.Failures()), dist.AliveWorkers())
	}
	if !bytes.Equal(inventoryBytes(t, dist.States()), inventoryBytes(t, ref.States())) {
		t.Error("post-failover merged inventory differs from the in-process run")
	}
}

// TestFleetTopologyCountsJoinedWorkers: Assignment indexes the live
// fleet, which grows with every admitted -join, so the worker count a
// checkpoint records and the exit line's denominator must count the
// fleet, not the -workers list the run was started with.
func TestFleetTopologyCountsJoinedWorkers(t *testing.T) {
	f := daemonFlags{seed: 5, prefixes: 4, density: 0.02, shards: 4, parallel: 1, reverify: 0.25, maxStale: 2}
	addrs := []string{serveTestWorker(t).addr(), serveTestWorker(t).addr()}
	coord, err := transport.Dial(addrs, f.shardConfig(), f.world().header(), &transport.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	joinLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord.AcceptJoins(joinLis)

	u := netmodel.Generate(gps.DemoUniverseParams(f.seed, f.prefixes, f.density))
	seedSet := gps.CollectSeed(u, 0.05, f.seed^0x5eed)
	if err := coord.Seed(seedSet.FilterPorts(seedSet.EligiblePorts(2))); err != nil {
		t.Fatal(err)
	}

	joined := make(chan error, 1)
	go func() { joined <- transport.Join(joinLis.Addr().String(), "late", newDemoWorld, nil) }()
	for deadline := time.Now().Add(10 * time.Second); len(coord.Status().Workers) < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("joiner never registered: %+v", coord.Status().Workers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := coord.Epoch(); err != nil {
		t.Fatal(err)
	}
	workers := len(coord.WorkerAddrs())
	if workers != 3 {
		t.Errorf("checkpoint records %d workers; the fleet is 3 after the join", workers)
	}
	onJoiner := 0
	for s, w := range coord.Assignment() {
		if w >= workers {
			t.Errorf("shard %d assigned to worker %d of a %d-worker fleet", s, w, workers)
		}
		if w == 2 {
			onJoiner++
		}
	}
	if onJoiner == 0 {
		t.Errorf("no shard migrated onto the joiner: %v", coord.Assignment())
	}
	if got, want := exitSuffix(coord.Coordinator), " across 3/3 workers"; got != want {
		t.Errorf("exit suffix %q; want %q", got, want)
	}

	coord.Close()
	if err := <-joined; err != nil {
		t.Errorf("joined worker: %v", err)
	}
}
