package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gps/internal/shard"
	"gps/internal/telemetry"
	"gps/internal/wire"
)

// startJoinListener arms a coordinator's cluster listener and returns
// its address.
func startJoinListener(t *testing.T, c *Coordinator) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.AcceptJoins(lis)
	return lis.Addr().String()
}

// waitForWorker polls the cluster document until worker id reaches the
// wanted state.
func waitForWorker(t *testing.T, c *Coordinator, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, w := range c.Status().Workers {
			if w.ID == id && w.State == state {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("worker %q never reached state %q; cluster: %+v", id, state, c.Status().Workers)
}

// migrationCount reads the coordinator's completed-migration counter for
// one trigger. The instrument lives in internal/shard; registering the
// same series again fetches its handle.
func migrationCount(reason string) uint64 {
	return telemetry.Default.Counter("gps_shard_migrations_total", "", "reason", reason).Value()
}

func findWorker(t *testing.T, c *Coordinator, id string) shard.WorkerStatus {
	t.Helper()
	for _, w := range c.Status().Workers {
		if w.ID == id {
			return w
		}
	}
	t.Fatalf("worker %q not in cluster document", id)
	return shard.WorkerStatus{}
}

// TestMigrationJoinDrainLeaveCycle is the full elastic-membership
// lifecycle at transport level, mirroring the e2e churn phase: a
// 2-worker fleet gains a joiner (live migration onto it), loses a
// dialed worker to an API drain, then loses the joiner to a
// worker-initiated leave — and the 5-epoch result is byte-identical to
// the in-process run, proving every migrated state arrived intact.
func TestMigrationJoinDrainLeaveCycle(t *testing.T) {
	const worldSeed, n, epochs = 21, 4, 5

	joinBase, drainBase := migrationCount("join"), migrationCount("drain")

	w0, w1 := startWorker(t), startWorker(t)
	c, err := Dial([]string{w0.addr(), w1.addr()}, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	joinAddr := startJoinListener(t, c)

	_, seedSet := testSeed(worldSeed)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}

	// Join a third worker mid-run. It must show as pending immediately,
	// then be admitted — with shards live-migrated onto it — at the
	// epoch-2 boundary.
	var leaving atomic.Bool
	joinDone := make(chan error, 1)
	go func() {
		joinDone <- Join(joinAddr, "w3", newSimWorld, &WorkerOptions{Draining: &leaving})
	}()
	waitForWorker(t, c, "w3", shard.WorkerPending)

	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 2: %v", err)
	}
	w3 := findWorker(t, c, "w3")
	if w3.State != shard.WorkerAlive || !w3.Joined || w3.ShardCount == 0 {
		t.Fatalf("after admission w3 = %+v; want alive, joined, owning shards", w3)
	}
	if got := migrationCount("join") - joinBase; got == 0 {
		t.Error("join admission completed no migrations")
	}

	// Drain the first dialed worker through the API path; its shards
	// must migrate away at the epoch-3 boundary.
	if err := c.RequestDrain(w0.addr()); err != nil {
		t.Fatalf("RequestDrain: %v", err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 3: %v", err)
	}
	if got := findWorker(t, c, w0.addr()); got.State != shard.WorkerDrained {
		t.Fatalf("after drain %s = %+v; want drained", w0.addr(), got)
	}
	if got := migrationCount("drain") - drainBase; got == 0 {
		t.Error("drain completed no migrations")
	}
	for s, wi := range c.Assignment() {
		if c.Status().Workers[wi].ID == w0.addr() {
			t.Errorf("shard %d still assigned to the drained worker", s)
		}
	}

	// Worker-initiated leave: w3 flips its draining flag, which rides
	// the epoch-4 results; the epoch-5 boundary migrates its shards
	// away and shuts it down, so Join returns nil.
	leaving.Store(true)
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 4: %v", err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 5: %v", err)
	}
	if got := findWorker(t, c, "w3"); got.State != shard.WorkerDrained {
		t.Fatalf("after leave w3 = %+v; want drained", got)
	}
	select {
	case err := <-joinDone:
		if err != nil {
			t.Fatalf("Join returned %v after a clean leave; want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("joined worker did not exit after its drain")
	}

	// Every shard ended on w1, and the run is byte-identical to the
	// in-process reference despite two live migrations per shard path.
	ref, _ := inProcessRun(t, worldSeed, n, epochs)
	if !bytes.Equal(stateBytes(t, c.States()), stateBytes(t, ref)) {
		t.Error("post-churn shard states differ from the in-process run")
	}
	if !bytes.Equal(inventoryBytes(t, c.States()), inventoryBytes(t, ref)) {
		t.Error("post-churn merged inventory differs from the in-process run")
	}
	doc := c.Status()
	if doc.Epoch != epochs || doc.Shards != n {
		t.Errorf("document header %d/%d; want %d/%d", doc.Epoch, doc.Shards, epochs, n)
	}
	if len(doc.Migrations) == 0 {
		t.Error("document retains no migration history")
	}
	if len(doc.ShardLatencies) != n {
		t.Errorf("document has %d shard latency rows; want %d", len(doc.ShardLatencies), n)
	}
}

// TestMigrationPlacementRejected: a joiner whose factory refuses the
// world spec rejects the placement; the assignment must be unchanged
// (the shard stays on its donor), the epoch must still succeed, and the
// run must stay byte-identical — a failed migration is invisible to the
// data.
func TestMigrationPlacementRejected(t *testing.T) {
	const worldSeed, n, epochs = 21, 2, 2
	rejectBase := telemetry.Default.Counter("gps_shard_migration_rejects_total", "").Value()

	w0 := startWorker(t)
	c, err := Dial([]string{w0.addr()}, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	joinAddr := startJoinListener(t, c)

	_, seedSet := testSeed(worldSeed)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}

	joinDone := make(chan error, 1)
	go func() {
		joinDone <- Join(joinAddr, "refuser", func(spec []byte) (World, error) {
			return nil, errors.New("will not simulate this world")
		}, nil)
	}()
	waitForWorker(t, c, "refuser", shard.WorkerPending)

	before := c.Assignment()
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 2 with a refusing joiner: %v", err)
	}
	after := c.Assignment()
	for s := range before {
		if before[s] != after[s] {
			t.Errorf("shard %d re-pointed %d → %d after a rejected placement", s, before[s], after[s])
		}
	}
	if got := findWorker(t, c, "refuser"); got.ShardCount != 0 || got.State != shard.WorkerAlive {
		t.Errorf("refusing joiner = %+v; want alive (a rejection is not a link failure) and owning 0 shards", got)
	}
	// One boundary, one attempt: the balance pass stops at its first
	// failure and retries at the next boundary.
	if got := telemetry.Default.Counter("gps_shard_migration_rejects_total", "").Value() - rejectBase; got != 1 {
		t.Errorf("gps_shard_migration_rejects_total moved by %d; want 1", got)
	}
	ref, _ := inProcessRun(t, worldSeed, n, epochs)
	if !bytes.Equal(inventoryBytes(t, c.States()), inventoryBytes(t, ref)) {
		t.Error("inventory diverged after a rejected migration")
	}
	c.Close()
	<-joinDone
}

// joinByHand registers a hand-rolled joiner on the cluster listener and
// returns its connection once the coordinator lists it as pending.
func joinByHand(t *testing.T, c *Coordinator, joinAddr, id string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", joinAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeHandshake(conn); err != nil {
		t.Fatal(err)
	}
	if err := readHandshake(conn); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, msgJoin, encodeJoin(joinMsg{ID: id})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn); err != nil || typ != msgJoinOK {
		t.Fatalf("join reply type %d err %v; want %d", typ, err, msgJoinOK)
	}
	waitForWorker(t, c, id, shard.WorkerPending)
	return conn
}

// TestMigrationDeathMidTransfer: a joiner that dies holding an unacked
// msgInit leaves the shard on its donor — the assignment never re-points
// to a worker that did not confirm the placement.
func TestMigrationDeathMidTransfer(t *testing.T) {
	const worldSeed, n = 21, 2

	w0 := startWorker(t)
	c, err := Dial([]string{w0.addr()}, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	joinAddr := startJoinListener(t, c)

	_, seedSet := testSeed(worldSeed)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}

	// A hand-rolled joiner: register, take delivery of the placement,
	// die before acking it.
	conn := joinByHand(t, c, joinAddr, "flaky")
	epochDone := make(chan error, 1)
	go func() {
		_, err := c.Epoch()
		epochDone <- err
	}()
	typ, payload, err := readFrame(conn)
	if err != nil || typ != msgInit {
		t.Fatalf("expected a placement, got type %d err %v", typ, err)
	}
	m, err := decodeInit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := shard.DecodeState(m.State); err != nil || st.Epoch != 1 {
		t.Fatalf("placement carried state (%+v, %v); want the shard's epoch-1 state", st, err)
	}
	conn.Close() // death between the placement and its ack

	if err := <-epochDone; err != nil {
		t.Fatalf("epoch 2 after mid-transfer death: %v", err)
	}
	for s, wi := range c.Assignment() {
		if c.Status().Workers[wi].ID != w0.addr() {
			t.Errorf("shard %d re-pointed off the donor despite the death", s)
		}
	}
	if got := findWorker(t, c, "flaky"); got.State != shard.WorkerDead {
		t.Errorf("mid-transfer casualty state %q; want %q", got.State, shard.WorkerDead)
	}
	// The fleet still works: another epoch on the donor.
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 3: %v", err)
	}
	ref, _ := inProcessRun(t, worldSeed, n, 3)
	if !bytes.Equal(inventoryBytes(t, c.States()), inventoryBytes(t, ref)) {
		t.Error("inventory diverged after a mid-transfer death")
	}
}

// TestMigrationAckNamesWrongShard: the one ack that re-points an
// assignment must name the migrated shard. A joiner that acks a
// different one is a protocol violation — dead, with the shard still on
// its donor.
func TestMigrationAckNamesWrongShard(t *testing.T) {
	const worldSeed, n = 21, 2

	w0 := startWorker(t)
	c, err := Dial([]string{w0.addr()}, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	joinAddr := startJoinListener(t, c)
	_, seedSet := testSeed(worldSeed)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}

	conn := joinByHand(t, c, joinAddr, "liar")
	go func() {
		if typ, payload, err := readFrame(conn); err == nil && typ == msgInit {
			if m, err := decodeInit(payload); err == nil {
				writeFrame(conn, msgInitOK, encodeShardAck(m.Shard+1))
			}
		}
	}()
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 1 with a lying joiner: %v", err)
	}
	for s, wi := range c.Assignment() {
		if c.Status().Workers[wi].ID != w0.addr() {
			t.Errorf("shard %d re-pointed to %q on an ack for another shard", s, c.Status().Workers[wi].ID)
		}
	}
	if got := findWorker(t, c, "liar"); got.State != shard.WorkerDead {
		t.Errorf("lying joiner state %q; want %q", got.State, shard.WorkerDead)
	}
}

// TestMigrationVersionSkewRejected covers both directions of version
// skew on the join path: an old worker dialing a new cluster listener
// is rejected without disturbing the listener, and a new worker dialing
// an old coordinator surfaces a bad-version *wire.Error from Join.
func TestMigrationVersionSkewRejected(t *testing.T) {
	const worldSeed = 21
	rejectBase := clusterJoinRejects.Value()

	w0 := startWorker(t)
	c, err := Dial([]string{w0.addr()}, testConfig(1), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	joinAddr := startJoinListener(t, c)

	// Old worker → new listener: speak version 1. The listener's
	// preamble must still be ours (so the old side can build its own
	// version error), and the connection must then close without a
	// msgJoinOK.
	conn, err := net.Dial("tcp", joinAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append([]byte(Magic), 1)); err != nil {
		t.Fatal(err)
	}
	pre := make([]byte, len(Magic)+1)
	if _, err := io.ReadFull(conn, pre); err != nil {
		t.Fatal(err)
	}
	if string(pre[:len(Magic)]) != Magic || pre[len(Magic)] != Version {
		t.Fatalf("listener preamble %q/%d; want %q/%d", pre[:len(Magic)], pre[len(Magic)], Magic, Version)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := readFrame(conn); err == nil {
		t.Fatal("version-skewed join was answered instead of closed")
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for clusterJoinRejects.Value() == rejectBase && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if clusterJoinRejects.Value() == rejectBase {
		t.Error("version-skewed join not counted as a rejection")
	}

	// The listener survived: a correct-version joiner still registers.
	joinDone := make(chan error, 1)
	go func() {
		joinDone <- Join(joinAddr, "postskew", newSimWorld, nil)
	}()
	waitForWorker(t, c, "postskew", shard.WorkerPending)

	// New worker → old coordinator: a fake listener speaking version 1.
	oldLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer oldLis.Close()
	go func() {
		for {
			oc, err := oldLis.Accept()
			if err != nil {
				return
			}
			oc.Write(append([]byte(Magic), 1))
			io.Copy(io.Discard, oc)
			oc.Close()
		}
	}()
	err = Join(oldLis.Addr().String(), "newworker", newSimWorld, &WorkerOptions{DialTimeout: 2 * time.Second})
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Format != Magic || werr.Kind != wire.BadVersion {
		t.Fatalf("Join against a v1 coordinator returned %v; want a bad-version GPST *wire.Error", err)
	}
	if want := fmt.Sprintf("found version 1, want %d", Version); !strings.Contains(err.Error(), want) {
		t.Errorf("bad-version error %q does not say %q", err, want)
	}

	c.Close()
	<-joinDone
}

// TestClusterDrainZeroShardsNoop: draining a worker that owns no shards
// must be a clean removal — zero migrations, assignment untouched, the
// worker disconnected — not an error and not a stall.
func TestClusterDrainZeroShardsNoop(t *testing.T) {
	const worldSeed, n = 21, 2
	drainBase := migrationCount("drain")

	// Three workers, two shards: round-robin leaves worker 2 idle.
	w0, w1, w2 := startWorker(t), startWorker(t), startWorker(t)
	c, err := Dial([]string{w0.addr(), w1.addr(), w2.addr()}, testConfig(n), worldSpec(worldSeed), testOptions())
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
	if got := findWorker(t, c, w2.addr()); got.ShardCount != 0 {
		t.Fatalf("worker 2 owns %d shards; want 0 for this test", got.ShardCount)
	}

	if err := c.RequestDrain(w2.addr()); err != nil {
		t.Fatalf("RequestDrain: %v", err)
	}
	before := c.Assignment()
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch 2: %v", err)
	}
	if got := findWorker(t, c, w2.addr()); got.State != shard.WorkerDrained {
		t.Fatalf("idle worker state %q after drain; want %q", got.State, shard.WorkerDrained)
	}
	if got := migrationCount("drain") - drainBase; got != 0 {
		t.Errorf("drain of an idle worker performed %d migrations; want 0", got)
	}
	after := c.Assignment()
	for s := range before {
		if before[s] != after[s] {
			t.Errorf("shard %d moved %d → %d during an idle drain", s, before[s], after[s])
		}
	}
	if c.AliveWorkers() != 2 {
		t.Errorf("AliveWorkers = %d; want 2", c.AliveWorkers())
	}

	// Unknown workers are typed errors, not silent no-ops.
	if err := c.RequestDrain("no-such-worker"); err == nil {
		t.Error("RequestDrain accepted an unknown worker id")
	}
}

// failAfterHandshake passes a connection's first write (the stream
// preamble) through and fails every later one, as a joiner that hung up
// right after registering looks to the coordinator.
type failAfterHandshake struct {
	net.Conn
	writes int
}

func (c *failAfterHandshake) Write(b []byte) (int, error) {
	if c.writes++; c.writes > 1 {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(b)
}

// TestClusterFailedJoinLeavesNoLink: a joiner whose msgJoinOK cannot be
// written is dropped from the pending set and from the coordinator's
// links, so the cluster document does not list it, no closed link waits
// for Close, and the same id can join again.
func TestClusterFailedJoinLeavesNoLink(t *testing.T) {
	w0 := startWorker(t)
	c, err := Dial([]string{w0.addr()}, testConfig(1), worldSpec(21), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	client, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// The joiner's whole side fits the socket buffers, so it is written
	// before the coordinator reads it.
	if err := writeHandshake(client); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(client, msgJoin, encodeJoin(joinMsg{ID: "flaky"})); err != nil {
		t.Fatal(err)
	}
	c.handleJoin(&failAfterHandshake{Conn: server})

	for _, w := range c.Status().Workers {
		if w.ID == "flaky" {
			t.Fatalf("failed joiner still listed: %+v", w)
		}
	}
	c.mu.Lock()
	links, pending := len(c.links), len(c.pending)
	c.mu.Unlock()
	if links != 1 || pending != 0 {
		t.Fatalf("after a failed join: %d links, %d pending; want the dialed worker's 1 and 0", links, pending)
	}

	joinAddr := startJoinListener(t, c)
	joinDone := make(chan error, 1)
	go func() {
		joinDone <- Join(joinAddr, "flaky", newSimWorld, nil)
	}()
	waitForWorker(t, c, "flaky", shard.WorkerPending)
	c.Close()
	if err := <-joinDone; err != nil {
		t.Errorf("re-join: %v", err)
	}
}
