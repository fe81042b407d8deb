package main

import (
	"net"
	"testing"
	"time"

	"gps"
	"gps/internal/netmodel"
	"gps/internal/shard/transport"
)

// serveTestWorker runs a demo-world shard worker on a loopback listener
// until the test ends.
func serveTestWorker(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		transport.Serve(lis, newDemoWorld, nil)
	}()
	t.Cleanup(func() {
		lis.Close()
		<-done
	})
	return lis.Addr().String()
}

// TestFleetTopologyCountsJoinedWorkers: Assignment indexes the live
// fleet, which grows with every admitted -join, so the worker count a
// checkpoint records and the exit line's denominator must count the
// fleet, not the -workers list the run was started with.
func TestFleetTopologyCountsJoinedWorkers(t *testing.T) {
	f := daemonFlags{seed: 5, prefixes: 4, density: 0.02, shards: 4, parallel: 1, reverify: 0.25, maxStale: 2}
	addrs := []string{serveTestWorker(t), serveTestWorker(t)}
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
