package gps_test

// Compile-checks and exercises every root-package re-export once, so a
// refactor of the internal packages cannot silently break the public API:
// removing or retyping an alias fails this file at compile time, and each
// function alias is called at least once against a tiny universe.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gps"
	"gps/internal/wire"
)

// The type aliases, pinned by assignability. A change to any underlying
// internal type that breaks the alias breaks this block.
var (
	_ gps.IP                = gps.IP(0)
	_ gps.Prefix            = gps.Prefix{}
	_ gps.ASN               = gps.ASN(0)
	_ *gps.Universe         = (*gps.Universe)(nil)
	_ gps.UniverseParams    = gps.UniverseParams{}
	_ gps.ServiceKey        = gps.ServiceKey{}
	_ *gps.Dataset          = (*gps.Dataset)(nil)
	_ gps.Record            = gps.Record{}
	_ gps.FeatureKey        = gps.FeatureKey(0)
	_ gps.Protocol          = gps.Protocol(0)
	_ *gps.Model            = (*gps.Model)(nil)
	_ gps.FamilySet         = gps.FamilySet(0)
	_ gps.PriorsList        = gps.PriorsList{}
	_ gps.Prediction        = gps.Prediction{}
	_ *gps.GroundTruth      = (*gps.GroundTruth)(nil)
	_ *gps.Tracker          = (*gps.Tracker)(nil)
	_ gps.Curve             = gps.Curve(nil)
	_ gps.Rate              = gps.Rate{}
	_ gps.Config            = gps.Config{}
	_ gps.Phase             = gps.PhasePriors
	_ gps.Phase             = gps.PhasePredict
	_ gps.Discovery         = gps.Discovery{}
	_ gps.Timings           = gps.Timings{}
	_ *gps.Result           = (*gps.Result)(nil)
	_ gps.ChurnParams       = gps.ChurnParams{}
	_ gps.ContinuousConfig  = gps.ContinuousConfig{}
	_ *gps.Continuous       = (*gps.Continuous)(nil)
	_ *gps.ContinuousState  = (*gps.ContinuousState)(nil)
	_ gps.EpochStats        = gps.EpochStats{}
	_ *gps.KnownService     = (*gps.KnownService)(nil)
	_ gps.Freshness         = gps.Freshness{}
	_ gps.ShardFilter       = gps.ShardFilter{}
	_ gps.ShardConfig       = gps.ShardConfig{}
	_ *gps.ShardCoordinator = (*gps.ShardCoordinator)(nil)
	_ *gps.ShardMerged      = (*gps.ShardMerged)(nil)

	_ *gps.UniversePartition      = (*gps.UniversePartition)(nil)
	_ gps.ShardWorld              = gps.ShardWorld(nil)
	_ gps.ShardExtendableWorld    = gps.ShardExtendableWorld(nil)
	_ gps.ShardWorldFactory       = gps.ShardWorldFactory(nil)
	_ gps.ShardWorkerOptions      = gps.ShardWorkerOptions{}
	_ gps.DistributedOptions      = gps.DistributedOptions{}
	_ *gps.DistributedCoordinator = (*gps.DistributedCoordinator)(nil)
	_ *gps.ShardWorkerError       = (*gps.ShardWorkerError)(nil)

	_ *gps.InventorySnapshot   = (*gps.InventorySnapshot)(nil)
	_ *gps.InventoryPublisher  = (*gps.InventoryPublisher)(nil)
	_ *gps.InventoryServer     = (*gps.InventoryServer)(nil)
	_ gps.InventoryStats       = gps.InventoryStats{}
	_ gps.ServedService        = gps.ServedService{}
	_ gps.InventoryPortCount   = gps.InventoryPortCount{}
	_ gps.ShardCommitHook      = gps.ShardCommitHook(nil)
	_ gps.ContinuousCommitHook = gps.ContinuousCommitHook(nil)
	_ *gps.WireError           = (*wire.Error)(nil)
)

// TestFacadeEndToEnd drives every exported function through one tiny
// batch run, one sharded run, and one continuous epoch with a checkpoint
// cycle.
func TestFacadeEndToEnd(t *testing.T) {
	const seed = 21

	// Universe construction helpers.
	if p := gps.DefaultUniverseParams(seed); p.Seed != seed {
		t.Error("DefaultUniverseParams dropped the seed")
	}
	if p := gps.DemoUniverseParams(seed, 8, 0.05); p.NumPrefix16 != 8 {
		t.Error("DemoUniverseParams dropped the prefix count")
	}
	u := gps.GenerateUniverse(gps.SmallUniverseParams(seed))
	if u.NumHosts() == 0 || u.SpaceSize() == 0 {
		t.Fatal("empty universe")
	}

	// Partitioned generation: checked construction, restriction, merge.
	if _, err := gps.NewUniverse(gps.UniverseParams{}); err == nil {
		t.Error("NewUniverse accepted zero params")
	}
	partParams := func(owned ...int) gps.UniverseParams {
		p := gps.SmallUniverseParams(seed)
		p.Partition = &gps.UniversePartition{Count: 4, Owned: owned}
		return p
	}
	sub0, err := gps.NewUniverse(partParams(0))
	if err != nil {
		t.Fatal(err)
	}
	sub1, err := gps.NewUniverse(partParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if sub0.NumHosts() >= u.NumHosts() || sub0.Partition() == nil {
		t.Error("partitioned universe did not restrict hosts")
	}
	for _, h := range sub0.Hosts()[:10] {
		if gps.ShardOf(h.IP, 4) != 0 {
			t.Fatalf("partition {0} materialized host %v of shard %d", h.IP, gps.ShardOf(h.IP, 4))
		}
	}
	mergedU, err := gps.MergeUniverses(sub0, sub1)
	if err != nil {
		t.Fatal(err)
	}
	if mergedU.NumHosts() != sub0.NumHosts()+sub1.NumHosts() {
		t.Error("MergeUniverses lost hosts")
	}
	if _, err := gps.MergeUniverses(sub0, sub0); err == nil {
		t.Error("MergeUniverses accepted overlapping partitions")
	}

	// The transport's world-spec partition envelope.
	base := []byte("demo world header")
	spec := gps.PartitionShardWorldSpec(base, 4, []int{2, 0})
	gotBase, shards, owned, err := gps.SplitShardWorldSpec(spec)
	if err != nil || string(gotBase) != string(base) || shards != 4 ||
		len(owned) != 2 || owned[0] != 0 || owned[1] != 2 {
		t.Errorf("world spec round trip = (%q, %d, %v, %v)", gotBase, shards, owned, err)
	}
	if _, _, _, err := gps.SplitShardWorldSpec([]byte("junk")); err == nil {
		t.Error("SplitShardWorldSpec accepted junk")
	}

	// Snapshots and splits.
	censys := gps.SnapshotCensys(u, 50)
	if censys.NumServices() == 0 {
		t.Fatal("empty censys snapshot")
	}
	full := gps.SnapshotAllPorts(u, 0.3, seed^0x11)
	seedSet, testSet := full.Split(0.04, seed^0x22)
	seedSet = seedSet.FilterPorts(seedSet.EligiblePorts(2))
	collected := gps.CollectSeed(u, 0.04, seed)
	if collected.CollectionProbes == 0 {
		t.Error("CollectSeed accounted no bandwidth")
	}

	// Batch pipeline + evaluation.
	res, err := gps.Run(u, seedSet, gps.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Found) == 0 || res.TotalScanProbes() == 0 {
		t.Fatal("batch run found nothing")
	}
	gt := gps.NewGroundTruth(testSet)
	tr := gps.NewTracker(gt, u.SpaceSize())
	tr.Spend(1)
	point, curve := gps.Evaluate(res, testSet, u.SpaceSize())
	if point.Found == 0 || len(curve) == 0 {
		t.Error("Evaluate produced an empty curve")
	}
	if (gps.Rate{Gbps: 1}).Duration(res.TotalScanProbes()) <= 0 {
		t.Error("Rate.Duration returned nothing for a nonzero scan")
	}

	// Sharding: hash, partition, sharded run, merge, inventory.
	ip := gps.IP(0x0a000001)
	if gps.ShardOf(ip, 1) != 0 {
		t.Error("ShardOf(_, 1) != 0")
	}
	if f := (gps.ShardFilter{Index: gps.ShardOf(ip, 4), Count: 4}); !f.Owns(ip) {
		t.Error("ShardFilter does not own its own hash bucket")
	}
	parts := gps.PartitionDataset(seedSet, 4)
	n := 0
	for _, p := range parts {
		n += p.NumServices()
	}
	if len(parts) != 4 || n != seedSet.NumServices() {
		t.Errorf("PartitionDataset: %d parts, %d records; want 4 parts, %d records", len(parts), n, seedSet.NumServices())
	}
	merged, err := gps.RunSharded(u, seedSet, gps.Config{Seed: seed}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Found) != len(res.Found) {
		t.Errorf("2-shard merged inventory %d services; unsharded %d", len(merged.Found), len(res.Found))
	}
	if re := gps.MergeShardResults(merged.Results); len(re.Found) != len(merged.Found) {
		t.Error("MergeShardResults disagrees with RunSharded's own merge")
	}

	// Continuous + churn + checkpoints, unsharded and sharded.
	world := gps.ApplyChurn(u, gps.DefaultChurn(seed+1))
	runner := gps.NewContinuous(seedSet, gps.ContinuousConfig{Pipeline: gps.Config{Workers: 1, Seed: seed}})
	stats, err := runner.Epoch(world)
	if err != nil {
		t.Fatal(err)
	}
	if stats.KnownSize == 0 {
		t.Fatal("continuous epoch emptied the inventory")
	}
	var buf bytes.Buffer
	if err := gps.WriteContinuousCheckpoint(&buf, runner.State()); err != nil {
		t.Fatal(err)
	}
	st, err := gps.ReadContinuousCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if resumed := gps.ResumeContinuous(st, gps.ContinuousConfig{}); resumed.State().Epoch != 1 {
		t.Error("continuous checkpoint did not round-trip the epoch")
	}

	coord := gps.NewShardCoordinator(seedSet, gps.ShardConfig{
		Shards:     2,
		Continuous: gps.ContinuousConfig{Pipeline: gps.Config{Workers: 1, Seed: seed}},
	})
	if _, err := coord.Epoch(world); err != nil {
		t.Fatal(err)
	}
	inv, conflicts := coord.Inventory()
	if len(inv) == 0 || conflicts != 0 {
		t.Errorf("coordinator inventory %d services, %d conflicts", len(inv), conflicts)
	}
	buf.Reset()
	if err := gps.WriteShardCheckpoint(&buf, coord.States()); err != nil {
		t.Fatal(err)
	}
	states, err := gps.ReadShardCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if inv2, _ := gps.MergeShardInventories(states); len(inv2) != len(inv) {
		t.Error("sharded checkpoint did not round-trip the inventory")
	}
	if _, err := gps.ResumeShardCoordinator(states, gps.ShardConfig{Shards: 2}); err != nil {
		t.Fatal(err)
	}
}

// facadeWorld adapts the facade's universe helpers to the shard-worker
// World contract: epoch e is the seed universe with churn seed+1..seed+e
// applied.
type facadeWorld struct {
	seed  int64
	epoch int
	u     *gps.Universe
}

func (w *facadeWorld) UniverseAt(e int) (*gps.Universe, error) {
	if e < w.epoch {
		w.u = gps.GenerateUniverse(gps.SmallUniverseParams(w.seed))
		w.epoch = 0
	}
	for w.epoch < e {
		w.epoch++
		w.u = gps.ApplyChurn(w.u, gps.DefaultChurn(w.seed+int64(w.epoch)))
	}
	return w.u, nil
}

// TestFacadeDistributed drives the distributed re-exports: a one-worker
// fleet whose merged inventory must match the in-process coordinator's
// byte for byte, then a split+join re-balance round trip of the states.
func TestFacadeDistributed(t *testing.T) {
	const seed = 21
	u := gps.GenerateUniverse(gps.SmallUniverseParams(seed))
	seedSet := gps.CollectSeed(u, 0.05, seed^0x5eed)
	seedSet = seedSet.FilterPorts(seedSet.EligiblePorts(2))
	cfg := gps.ShardConfig{
		Shards:     2,
		Continuous: gps.ContinuousConfig{Pipeline: gps.Config{Workers: 1, Seed: seed}},
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		served <- gps.ServeShardWorker(lis, func(spec []byte) (gps.ShardWorld, error) {
			return &facadeWorld{seed: seed, u: gps.GenerateUniverse(gps.SmallUniverseParams(seed))}, nil
		}, nil)
	}()
	defer func() {
		lis.Close()
		<-served
	}()

	coord, err := gps.DialShardWorkers([]string{lis.Addr().String()}, cfg, nil,
		&gps.DistributedOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Epoch(); err != nil {
		t.Fatal(err)
	}

	ref := gps.NewShardCoordinator(seedSet, cfg)
	if _, err := ref.Epoch(gps.ApplyChurn(u, gps.DefaultChurn(seed+1))); err != nil {
		t.Fatal(err)
	}

	var distInv, refInv bytes.Buffer
	inv, _ := coord.Inventory()
	if err := gps.WriteShardInventory(&distInv, inv); err != nil {
		t.Fatal(err)
	}
	inv2, _ := ref.Inventory()
	if err := gps.WriteShardInventory(&refInv, inv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(distInv.Bytes(), refInv.Bytes()) {
		t.Error("distributed inventory differs from the in-process coordinator's")
	}

	split, err := gps.SplitShardStates(coord.States())
	if err != nil {
		t.Fatal(err)
	}
	joined, err := gps.JoinShardStates(split)
	if err != nil {
		t.Fatal(err)
	}
	var before, after bytes.Buffer
	if err := gps.WriteShardCheckpoint(&before, coord.States()); err != nil {
		t.Fatal(err)
	}
	if err := gps.WriteShardCheckpoint(&after, joined); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("split+join did not round-trip the shard states")
	}
}

// TestFacadeServing drives the serving re-exports end to end: a sharded
// coordinator whose commit hook feeds an InventoryPublisher, the HTTP
// query API over it, and the GPSV write→read round trip standalone
// serving depends on.
func TestFacadeServing(t *testing.T) {
	const seed = 33
	u := gps.GenerateUniverse(gps.SmallUniverseParams(seed))
	seedSet := gps.CollectSeed(u, 0.05, seed^0x5eed)
	seedSet = seedSet.FilterPorts(seedSet.EligiblePorts(2))
	cfg := gps.ShardConfig{
		Shards:     2,
		Continuous: gps.ContinuousConfig{Pipeline: gps.Config{Workers: 1, Seed: seed}},
	}
	coord := gps.NewShardCoordinator(seedSet, cfg)

	var pub gps.InventoryPublisher
	coord.SetCommitHook(func(epoch int, inv map[gps.ServiceKey]*gps.KnownService) {
		pub.Publish(gps.NewInventorySnapshot(epoch, inv))
	})
	if _, err := coord.Epoch(gps.ApplyChurn(u, gps.DefaultChurn(seed+1))); err != nil {
		t.Fatal(err)
	}

	snap := pub.Current()
	if snap == nil || snap.Epoch() != 1 {
		t.Fatalf("commit hook published %v; want epoch-1 snapshot", snap)
	}
	inv, _ := coord.Inventory()
	if snap.NumServices() != len(inv) {
		t.Fatalf("snapshot holds %d services; inventory %d", snap.NumServices(), len(inv))
	}

	// The GPSV artifact round-trips and serves the same aggregates.
	var gpsv bytes.Buffer
	if err := gps.WriteShardInventory(&gpsv, inv); err != nil {
		t.Fatal(err)
	}
	loaded, err := gps.ReadShardInventory(bytes.NewReader(gpsv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fileSnap := gps.NewInventorySnapshot(1, loaded)
	if fileSnap.Stats() != snap.Stats() {
		t.Errorf("file-loaded stats %+v differ from live stats %+v", fileSnap.Stats(), snap.Stats())
	}

	srv := httptest.NewServer(gps.NewInventoryServer(&pub).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Epoch    int `json:"epoch"`
		Services int `json:"services"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 1 || stats.Services != len(inv) {
		t.Errorf("served stats %+v; want epoch 1, %d services", stats, len(inv))
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/stats", nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("revalidation got %d; want 304", resp2.StatusCode)
	}

	// Typed read errors surface through the facade.
	var werr *gps.WireError
	if _, err := gps.ReadShardInventory(bytes.NewReader([]byte("nonsense bytes"))); !errors.As(err, &werr) ||
		werr.Format != "GPSV" || werr.Kind != wire.BadMagic {
		t.Errorf("foreign bytes: %v; want a GPSV bad-magic *gps.WireError", err)
	}
	if _, err := gps.ReadShardInventory(bytes.NewReader(gpsv.Bytes()[:gpsv.Len()-1])); !errors.As(err, &werr) ||
		werr.Format != "GPSV" || werr.Kind != wire.Truncated || werr.Section != "entry" {
		t.Errorf("truncated inventory: %v; want a GPSV truncated-entry *gps.WireError", err)
	}
}

// Replication facade aliases, pinned by assignability.
var (
	_ *gps.SnapshotDelta      = (*gps.SnapshotDelta)(nil)
	_ gps.SnapshotDeltaEntry  = gps.SnapshotDeltaEntry{}
	_ *gps.InventoryFeed      = (*gps.InventoryFeed)(nil)
	_ gps.InventoryFeedSource = (*gps.InventoryFeed)(nil)
	_ gps.InventoryFeedEvent  = gps.InventoryFeedEvent{}
	_ *gps.InventoryFeedConn  = (*gps.InventoryFeedConn)(nil)
	_ *gps.ReplicaServer      = (*gps.ReplicaServer)(nil)
	_ gps.ReplicaOptions      = gps.ReplicaOptions{}
	_ *gps.WatchClient        = (*gps.WatchClient)(nil)
	_ gps.WatchEvent          = gps.WatchEvent{}
	_ gps.WatchEntry          = gps.WatchEntry{}
	_ gps.WatchKey            = gps.WatchKey{}
	_ error                   = gps.ErrWatchDone
)

// TestFacadeReplication drives the replication surface end to end
// through the root package: a coordinator commits epochs into a feed, a
// replica follows it over a real listener, a watch client follows the
// replica's /v1/watch, and the delta codec round-trips with typed
// errors — all byte-compared against the origin inventory.
func TestFacadeReplication(t *testing.T) {
	const seed = 27
	u := gps.GenerateUniverse(gps.SmallUniverseParams(seed))
	seedSet := gps.CollectSeed(u, 0.05, seed^0x5eed)
	seedSet = seedSet.FilterPorts(seedSet.EligiblePorts(2))
	coord := gps.NewShardCoordinator(seedSet, gps.ShardConfig{
		Shards:     2,
		Continuous: gps.ContinuousConfig{Pipeline: gps.Config{Workers: 1, Seed: seed}},
	})

	feed := gps.NewInventoryFeed(8)
	defer feed.Close()
	coord.SetCommitHook(feed.Commit)

	// Two committed epochs: one to bootstrap from, one to ride as a delta.
	for e := 1; e <= 2; e++ {
		u = gps.ApplyChurn(u, gps.DefaultChurn(seed+int64(e)))
		if _, err := coord.Epoch(u); err != nil {
			t.Fatal(err)
		}
	}
	if feed.Head() != 2 {
		t.Fatalf("feed head %d; want 2", feed.Head())
	}
	originInv, _ := coord.Inventory()
	var originWire bytes.Buffer
	if err := gps.WriteShardInventory(&originWire, originInv); err != nil {
		t.Fatal(err)
	}

	// The delta codec round-trips through the facade.
	base := gps.CloneShardInventory(originInv)
	next := gps.CloneShardInventory(originInv)
	for k := range next {
		delete(next, k)
		break
	}
	d := gps.ComputeSnapshotDelta(base, next, 2, 3)
	if len(d.Removes) != 1 || d.Size() != 1 {
		t.Fatalf("delta removes %d size %d; want 1 1", len(d.Removes), d.Size())
	}
	var dw bytes.Buffer
	if err := gps.WriteSnapshotDelta(&dw, d); err != nil {
		t.Fatal(err)
	}
	rd, err := gps.ReadSnapshotDelta(bytes.NewReader(dw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := gps.ApplySnapshotDelta(base, rd); err != nil {
		t.Fatal(err)
	}
	if len(base) != len(next) {
		t.Fatalf("applied delta leaves %d services; want %d", len(base), len(next))
	}
	var werr *gps.WireError
	if _, err := gps.ReadSnapshotDelta(bytes.NewReader([]byte("nonsense bytes"))); !errors.As(err, &werr) ||
		werr.Format != "GPSE" || werr.Kind != wire.BadMagic {
		t.Errorf("foreign bytes: %v; want a GPSE bad-magic *gps.WireError", err)
	}
	if _, err := gps.ReadSnapshotDelta(bytes.NewReader(dw.Bytes()[:dw.Len()-1])); !errors.As(err, &werr) ||
		werr.Format != "GPSE" || werr.Kind != wire.Truncated {
		t.Errorf("truncated delta: %v; want a GPSE truncated *gps.WireError", err)
	}

	// Serve the feed on a real listener; a replica follows it.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	feedDone := make(chan error, 1)
	go func() {
		feedDone <- gps.ServeInventoryFeed(lis, feed, &gps.DistributedOptions{Timeout: 5 * time.Second})
	}()
	defer func() {
		lis.Close()
		if err := <-feedDone; err != nil {
			t.Errorf("ServeInventoryFeed: %v", err)
		}
	}()

	// A raw subscription sees a snapshot frame first.
	fc, err := gps.DialInventoryFeed(lis.Addr().String(), -1, &gps.DistributedOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := fc.Recv()
	fc.Close()
	if err != nil || ev.Kind != gps.InventoryFeedSnapshot || ev.Epoch != 2 {
		t.Fatalf("first feed event kind %v epoch %d err %v; want snapshot at 2", ev.Kind, ev.Epoch, err)
	}
	if !bytes.Equal(ev.Payload, originWire.Bytes()) {
		t.Fatal("feed snapshot payload differs from the canonical origin inventory")
	}

	rep := gps.NewReplicaServer(lis.Addr().String(), &gps.ReplicaOptions{Backoff: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	repDone := make(chan struct{})
	go func() { defer close(repDone); rep.Run(ctx) }()
	defer func() { cancel(); <-repDone }()
	deadline := time.Now().Add(10 * time.Second)
	for rep.Epoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at epoch %d", rep.Epoch())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if repEpoch, repWire := rep.Feed().Snapshot(); repEpoch != 2 || !bytes.Equal(repWire, originWire.Bytes()) {
		t.Fatalf("replica inventory at epoch %d differs from origin", repEpoch)
	}

	// The replica serves /v1 and /v1/watch; a watch client reconstructs
	// the inventory from its own stream.
	srv := httptest.NewServer(gps.NewInventoryServer(rep.Publisher()).EnableWatch(rep.Feed()).Handler())
	defer srv.Close()
	mirror := make(map[gps.ServiceKey]*gps.KnownService)
	wc := &gps.WatchClient{URL: srv.URL + "/v1/watch", Since: -1}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := wc.Follow(wctx, func(ev gps.WatchEvent) error {
		if err := ev.ApplyTo(mirror); err != nil {
			return err
		}
		return gps.ErrWatchDone // the snapshot event is all we need
	}); err != nil {
		t.Fatal(err)
	}
	var mirrorWire bytes.Buffer
	if err := gps.WriteShardInventory(&mirrorWire, mirror); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mirrorWire.Bytes(), originWire.Bytes()) {
		t.Fatal("watch-reconstructed inventory differs from the origin")
	}
}
