package serve

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/shard"
	"gps/internal/shard/transport"
)

// The feed hub must satisfy the transport layer's subscription contract
// structurally; this is the only place the dependency is pinned.
var _ transport.FeedSource = (*Feed)(nil)

// invWire renders an inventory to canonical GPSV bytes — the byte-level
// equality oracle for replication.
func invWire(t *testing.T, inv map[netmodel.Key]*continuous.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := shard.WriteInventory(&buf, inv); err != nil {
		t.Fatalf("WriteInventory: %v", err)
	}
	return buf.Bytes()
}

// startOriginFeed serves f over the wire on a loopback port.
func startOriginFeed(t *testing.T, f *Feed) (addr string, shutdown func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- transport.ServeFeed(lis, f, &transport.Options{Timeout: 5 * time.Second}) }()
	return lis.Addr().String(), func() {
		lis.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeFeed: %v", err)
		}
	}
}

// waitReplicaEpoch polls until the replica has applied epoch.
func waitReplicaEpoch(t *testing.T, r *ReplicaServer, epoch int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.Epoch() < epoch {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at epoch %d; want %d", r.Epoch(), epoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func fastReplicaOpts() *ReplicaOptions {
	return &ReplicaOptions{
		Backoff: 5 * time.Millisecond,
		Dial:    &transport.Options{Timeout: 5 * time.Second, DialTimeout: 5 * time.Second},
	}
}

// TestFeedAsFeedSource pins the hub's FeedSource behavior against a real
// commit sequence: deltas for retained bases, aged-out bases falling back
// to a snapshot, and canonical bytes on both paths.
func TestFeedAsFeedSource(t *testing.T) {
	f := NewFeed(2)
	defer f.Close()
	if f.Head() != -1 {
		t.Fatalf("fresh feed head %d; want -1", f.Head())
	}

	invs := make(map[int]map[netmodel.Key]*continuous.Entry)
	for e := 0; e <= 5; e++ {
		invs[e] = testInventory(20+3*e, e)
		f.Commit(e, invs[e])
	}
	if f.Head() != 5 {
		t.Fatalf("head %d; want 5", f.Head())
	}

	// The snapshot is the canonical GPSV rendering of the head inventory.
	epoch, snap := f.Snapshot()
	if epoch != 5 || !bytes.Equal(snap, invWire(t, invs[5])) {
		t.Fatalf("snapshot epoch %d (%d bytes); want canonical epoch-5 bytes", epoch, len(snap))
	}

	// History depth 2 retains bases 3 and 4; earlier bases aged out.
	for _, base := range []int{0, 1, 2} {
		if _, _, ok := f.Delta(base); ok {
			t.Errorf("delta for aged-out base %d still served", base)
		}
	}
	for _, base := range []int{3, 4} {
		wire, next, ok := f.Delta(base)
		if !ok || next != base+1 {
			t.Fatalf("delta from %d: next %d ok %v; want %d true", base, next, ok, base+1)
		}
		// Applying the served delta must land exactly on the next epoch.
		got := shard.CloneInventory(invs[base])
		d, err := shard.ReadDelta(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("delta from %d undecodable: %v", base, err)
		}
		if err := shard.ApplyDelta(got, d); err != nil {
			t.Fatalf("applying delta from %d: %v", base, err)
		}
		if !bytes.Equal(invWire(t, got), invWire(t, invs[base+1])) {
			t.Errorf("delta from %d does not reproduce epoch %d", base, base+1)
		}
	}

	// A non-monotonic commit is ignored, mirroring Publisher.Publish.
	f.Commit(4, testInventory(1, 4))
	if f.Head() != 5 {
		t.Errorf("stale commit moved head to %d", f.Head())
	}

	// Wait: an old epoch returns immediately; cancel unblocks; close
	// returns false.
	if !f.Wait(4, nil) {
		t.Error("Wait(4) with head 5 returned false")
	}
	cancel := make(chan struct{})
	close(cancel)
	if !f.Wait(5, cancel) {
		t.Error("canceled Wait returned false (reserved for close)")
	}
	f.Close()
	if f.Wait(5, nil) {
		t.Error("Wait on a closed feed returned true")
	}
}

// TestReplicaBootstrapAndFollow runs the full replication path in
// process: a replica bootstraps from a snapshot frame, rides deltas
// epoch by epoch, and at every step its inventory bytes — and the /v1
// bodies and ETags served over it — are identical to the origin's.
func TestReplicaBootstrapAndFollow(t *testing.T) {
	origin := NewFeed(8)
	defer origin.Close()
	var originPub Publisher
	originH := NewServer(&originPub).Handler()

	commit := func(epoch, n int) {
		inv := testInventory(n, epoch)
		origin.Commit(epoch, inv)
		originPub.Publish(NewSnapshot(epoch, inv))
	}
	commit(0, 20)

	addr, shutdown := startOriginFeed(t, origin)
	defer shutdown()

	rep := NewReplicaServer(addr, fastReplicaOpts())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); rep.Run(ctx) }()
	defer func() { cancel(); <-done }()

	repH := NewServer(rep.Publisher()).Handler()
	sizes := map[int]int{0: 20, 1: 26, 2: 23, 3: 30} // adds, removes, updates
	for epoch := 0; epoch <= 3; epoch++ {
		if epoch > 0 {
			commit(epoch, sizes[epoch])
		}
		waitReplicaEpoch(t, rep, epoch)

		oe, ow := origin.Snapshot()
		re, rw := rep.Feed().Snapshot()
		if oe != epoch || re != epoch || !bytes.Equal(ow, rw) {
			t.Fatalf("epoch %d: origin %d vs replica %d inventories differ (%d vs %d bytes)",
				epoch, oe, re, len(ow), len(rw))
		}

		// The replica's /v1 answers are indistinguishable from the origin's.
		for _, path := range []string{"/v1/stats", "/v1/port/80?limit=8", "/v1/ports"} {
			ro, _ := get(t, originH, path, nil)
			rr, _ := get(t, repH, path, nil)
			if ro.Body.String() != rr.Body.String() {
				t.Errorf("epoch %d GET %s: origin and replica bodies differ:\n%s\n%s",
					epoch, path, ro.Body.String(), rr.Body.String())
			}
			if oTag, rTag := ro.Header().Get("ETag"), rr.Header().Get("ETag"); oTag != rTag || oTag == "" {
				t.Errorf("epoch %d GET %s: ETags %q vs %q", epoch, path, oTag, rTag)
			}
		}
	}

	if rep.Epoch() != 3 || rep.Publisher().Current().Epoch() != 3 {
		t.Fatalf("replica epoch %d published %d; want 3", rep.Epoch(), rep.Publisher().Current().Epoch())
	}
}

// TestReplicaRestartConverges kills a replica mid-stream and starts a
// fresh one (a replica is stateless — a restart has no disk to resume
// from): the newcomer bootstraps at the current head and converges to
// byte-identical inventories as further epochs land.
func TestReplicaRestartConverges(t *testing.T) {
	origin := NewFeed(8)
	defer origin.Close()
	invs := make(map[int]map[netmodel.Key]*continuous.Entry)
	commit := func(epoch, n int) {
		invs[epoch] = testInventory(n, epoch)
		origin.Commit(epoch, invs[epoch])
	}
	commit(0, 18)
	commit(1, 24)

	addr, shutdown := startOriginFeed(t, origin)
	defer shutdown()

	first := NewReplicaServer(addr, fastReplicaOpts())
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() { defer close(done1); first.Run(ctx1) }()
	waitReplicaEpoch(t, first, 1)
	cancel1()
	<-done1

	// The origin moves on while the replica is down.
	commit(2, 21)
	commit(3, 27)

	second := NewReplicaServer(addr, fastReplicaOpts())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	done2 := make(chan struct{})
	go func() { defer close(done2); second.Run(ctx2) }()
	defer func() { cancel2(); <-done2 }()
	waitReplicaEpoch(t, second, 3)

	// One more epoch proves the restarted replica is live, not frozen on
	// its bootstrap snapshot.
	commit(4, 25)
	waitReplicaEpoch(t, second, 4)

	_, ow := origin.Snapshot()
	_, rw := second.Feed().Snapshot()
	if !bytes.Equal(ow, rw) {
		t.Fatalf("restarted replica diverged: %d vs %d bytes", len(ow), len(rw))
	}
	if !bytes.Equal(rw, invWire(t, invs[4])) {
		t.Fatal("converged bytes are not the committed epoch-4 inventory")
	}
}

// TestReplicaResumesAcrossOriginRestart bounces the origin out from
// under a live replica: the feed closes (clean EOF), the replica redials
// with its retained epoch against the restarted origin on the same
// address, and resumes without losing its inventory.
func TestReplicaResumesAcrossOriginRestart(t *testing.T) {
	inv0 := testInventory(20, 0)
	feedA := NewFeed(8)
	feedA.Commit(0, inv0)

	addr, shutdownA := startOriginFeed(t, feedA)

	rep := NewReplicaServer(addr, fastReplicaOpts())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); rep.Run(ctx) }()
	defer func() { cancel(); <-done }()
	waitReplicaEpoch(t, rep, 0)

	reconnectsBefore := replicaReconnects.Value()
	feedA.Close()
	shutdownA()

	// The restarted origin carries the same history forward one epoch;
	// the replica's ?since=0 subscription lands on the retained delta.
	feedB := NewFeed(8)
	feedB.Commit(0, shard.CloneInventory(inv0))
	inv1 := testInventory(26, 1)
	feedB.Commit(1, inv1)

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding origin address: %v", err)
	}
	doneB := make(chan error, 1)
	go func() { doneB <- transport.ServeFeed(lis, feedB, &transport.Options{Timeout: 5 * time.Second}) }()
	defer func() {
		lis.Close()
		if err := <-doneB; err != nil {
			t.Errorf("ServeFeed: %v", err)
		}
	}()
	defer feedB.Close()

	waitReplicaEpoch(t, rep, 1)
	_, rw := rep.Feed().Snapshot()
	if !bytes.Equal(rw, invWire(t, inv1)) {
		t.Fatal("replica did not converge on the restarted origin's inventory")
	}
	if got := replicaReconnects.Value(); got <= reconnectsBefore {
		t.Errorf("reconnect counter did not move: %d then %d", reconnectsBefore, got)
	}
}

// TestReplicaRebootstrapsWhenBehind pins the K-epochs-behind contract
// end to end: an origin restart leaves the replica's epoch outside the
// new feed's history, so the session re-bootstraps from a full snapshot
// instead of failing on an unservable delta chain.
func TestReplicaRebootstrapsWhenBehind(t *testing.T) {
	feedA := NewFeed(8)
	feedA.Commit(0, testInventory(20, 0))

	addr, shutdownA := startOriginFeed(t, feedA)

	rep := NewReplicaServer(addr, fastReplicaOpts())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); rep.Run(ctx) }()
	defer func() { cancel(); <-done }()
	waitReplicaEpoch(t, rep, 0)

	bootstrapsBefore := replicaBootstraps.Value()
	feedA.Close()
	shutdownA()

	// The restarted origin retains only the 5→6 transition: epoch 0 is
	// more than K epochs behind.
	feedB := NewFeed(1)
	var last map[netmodel.Key]*continuous.Entry
	for e := 5; e <= 6; e++ {
		last = testInventory(30+e, e)
		feedB.Commit(e, last)
	}

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding origin address: %v", err)
	}
	doneB := make(chan error, 1)
	go func() { doneB <- transport.ServeFeed(lis, feedB, &transport.Options{Timeout: 5 * time.Second}) }()
	defer func() {
		lis.Close()
		if err := <-doneB; err != nil {
			t.Errorf("ServeFeed: %v", err)
		}
	}()
	defer feedB.Close()

	waitReplicaEpoch(t, rep, 6)
	_, rw := rep.Feed().Snapshot()
	if !bytes.Equal(rw, invWire(t, last)) {
		t.Fatal("lagged replica did not converge after re-bootstrap")
	}
	if got := replicaBootstraps.Value(); got <= bootstrapsBefore {
		t.Errorf("bootstrap counter did not move: %d then %d", bootstrapsBefore, got)
	}
}
