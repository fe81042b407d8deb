package main

import (
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"gps"
	"gps/internal/netmodel"
	"gps/internal/serve"
	"gps/internal/shard/transport"
	"gps/internal/telemetry"
	"gps/internal/trace"
)

// workerLog tags every worker-side line; the transport session's Logf
// feeds through it too, so migrations and drains land in the same
// structured stream.
var workerLog = trace.NewLogger("worker")

// demoWorld is the worker-side replica of gpsd's simulated universe.
// Each placement (msgInit) carries the coordinator's 28-byte world
// header wrapped in the transport's partition envelope (the total shard
// count plus this worker's owned shards); the worker rebuilds only the
// owned partition of the deterministic universe — ~owned/N of the
// full-world memory — and steps churn forward epoch by epoch with the
// same seed+epoch recipe the in-process daemon uses. Partitioned
// generation and churn are subset-stable (every host is a pure function
// of seed and identity), so the distributed run stays byte-identical to
// a single-process one.
type demoWorld struct {
	id    worldID
	part  *netmodel.Partition
	epoch int
	u     *netmodel.Universe
}

// parseWorkerSpec unwraps the partition envelope, which carries the shard
// count, and the world header inside it.
func parseWorkerSpec(spec []byte) (worldID, *netmodel.Partition, error) {
	base, shards, owned, err := transport.DecodeWorldSpec(spec)
	if err != nil {
		return worldID{}, nil, fmt.Errorf("world spec: %v", err)
	}
	id, err := parseWorldHeader(base)
	if err != nil {
		return worldID{}, nil, fmt.Errorf("world spec: %v", err)
	}
	return id, &netmodel.Partition{Count: shards, Owned: owned}, nil
}

// newDemoWorld is the worker's transport.WorldFactory. Universe
// parameters arrive from the network, so they are validated
// (netmodel.GenerateChecked), never trusted: a corrupt or crafted spec
// must surface as a `world spec rejected` RPC error, not crash the
// worker.
func newDemoWorld(spec []byte) (transport.World, error) {
	id, part, err := parseWorkerSpec(spec)
	if err != nil {
		return nil, err
	}
	w, err := generateDemoWorld(id, part)
	if err != nil {
		return nil, err
	}
	w.logBuilt()
	return w, nil
}

// generateDemoWorld materializes one partition of world id at epoch 0; a
// nil partition is the whole world.
func generateDemoWorld(id worldID, part *netmodel.Partition) (*demoWorld, error) {
	w := &demoWorld{id: id, part: part}
	return w, w.regenerate()
}

// fullDemoWorld is the whole world, as the in-process daemon scans it and
// a seeding coordinator samples it; its world gauges are the total the
// per-worker partition gauges must sum to (the e2e script asserts this).
func fullDemoWorld(f daemonFlags, why string) (*demoWorld, error) {
	mainLog.Infof("generating universe (seed=%d, %d /16s, density %.1f%%)%s",
		f.seed, f.prefixes, 100*f.density, why)
	w, err := generateDemoWorld(f.world(), nil)
	if err != nil {
		mainLog.Errorf("invalid universe flags: %v", err)
		return nil, err
	}
	setWorldGauges(w.u.NumHosts(), f.shards, f.shards)
	return w, nil
}

// regenerate resets the world to its epoch-0 universe.
func (w *demoWorld) regenerate() error {
	p := gps.DemoUniverseParams(w.id.Seed, w.id.Prefixes, w.id.Density)
	p.Partition = w.part
	u, err := netmodel.GenerateChecked(p)
	if err != nil {
		return err
	}
	w.u, w.epoch = u, 0
	return nil
}

// logBuilt reports the world the worker now holds and publishes the
// world gauges. Heap moved to the gps_process_heap_bytes gauge on
// -debug-addr (sampled at scrape time, not at build time);
// scripts/distributed_e2e.sh now asserts the per-worker partition sizes
// against the coordinator's total via /v1/metricz instead of grepping
// this line.
func (w *demoWorld) logBuilt() {
	setWorldGauges(w.u.NumHosts(), len(w.part.Owned), w.part.Count)
	workerLog.Infof("built universe (seed=%d, %d /16s, density %.1f%%): owns %d/%d shards, %d hosts",
		w.id.Seed, w.id.Prefixes, 100*w.id.Density,
		len(w.part.Owned), w.part.Count, w.u.NumHosts())
}

// World gauges, resolved once at startup: setWorldGauges runs on every
// world build — including the rebuilds a failover or migration causes —
// and must not re-enter the telemetry registry each time.
var (
	worldHostsGauge = telemetry.Default.Gauge("gps_world_hosts",
		"hosts materialized in this process's universe partition")
	worldOwnedShardsGauge = telemetry.Default.Gauge("gps_world_owned_shards",
		"shards this process's universe partition covers")
	worldTotalShardsGauge = telemetry.Default.Gauge("gps_world_total_shards",
		"total shards in the world's layout")
)

// setWorldGauges publishes the world this process materialized: how many
// hosts it holds and which share of the shard layout that covers. The
// single-process daemon and the seeding coordinator report the full
// world (owned == total).
func setWorldGauges(hosts, ownedShards, totalShards int) {
	worldHostsGauge.Set(float64(hosts))
	worldOwnedShardsGauge.Set(float64(ownedShards))
	worldTotalShardsGauge.Set(float64(totalShards))
}

// UniverseAt returns the universe as of the given epoch. Epochs normally
// only move forward; a rewind (a placed shard behind the world's epoch)
// regenerates epoch 0 and replays churn.
func (w *demoWorld) UniverseAt(e int) (*netmodel.Universe, error) {
	if e < w.epoch {
		if err := w.regenerate(); err != nil {
			return nil, err
		}
	}
	for w.epoch < e {
		w.epoch++
		w.u = netmodel.Churn(w.u, netmodel.DefaultChurn(w.id.Seed+int64(w.epoch)))
	}
	return w.u, nil
}

// runWorker serves shard epochs until SIGINT/SIGTERM. The world comes
// from the coordinator's Init, so a worker needs
// no universe flags — just an address. With -join ADDR the worker dials
// a running coordinator's -cluster listener instead of listening itself;
// with -leave a signal drains its shards back into the fleet before
// exit rather than dropping them.
func runWorker(f daemonFlags) int {
	trace.Default.SetProcess("worker")
	setProcessHealthLive(workerHealthLive)
	if f.joinAddr != "" {
		return runJoiningWorker(f)
	}
	lis, err := net.Listen("tcp", f.listen)
	if err != nil {
		workerLog.Errorf("%v", err)
		return 1
	}
	workerLog.Infof("listening on %s", lis.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		workerLog.Infof("%v — stopping", s)
		lis.Close()
	}()

	logf := func(format string, args ...any) {
		workerLog.Infof(format, args...)
	}
	if err := transport.Serve(lis, newDemoWorld, &transport.WorkerOptions{Logf: logf}); err != nil {
		workerLog.Errorf("%v", err)
		return 1
	}
	return 0
}

// runJoiningWorker is the elastic-membership path: register with a
// running coordinator, adopt whatever shards it migrates over, and
// serve epochs until the coordinator shuts the session down. With
// -leave, the first SIGINT/SIGTERM raises the draining flag — the
// coordinator migrates this worker's shards away at the next epoch
// boundary and then releases the session, so the exit is lossless; a
// second signal forces an immediate exit. Without -leave a signal just
// exits (the coordinator re-queues the shards onto survivors).
func runJoiningWorker(f daemonFlags) int {
	if f.workerName != "" {
		trace.Default.SetProcess("worker:" + f.workerName)
	}
	var draining atomic.Bool
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		if f.leave {
			workerLog.Infof("%v — draining: handing shards back before exit", s)
			draining.Store(true)
			setProcessHealth(func(i *serve.HealthInfo) { i.Draining = true })
			s = <-sig
		}
		workerLog.Warnf("%v — exiting now", s)
		os.Exit(1)
	}()

	name := f.workerName
	if name == "" {
		workerLog.Infof("joining %s", f.joinAddr)
	} else {
		workerLog.Infof("%q joining %s", name, f.joinAddr)
	}
	opts := &transport.WorkerOptions{
		Draining: &draining,
		Logf: func(format string, args ...any) {
			workerLog.Infof(format, args...)
		},
	}
	if err := transport.Join(f.joinAddr, name, newDemoWorld, opts); err != nil {
		workerLog.Errorf("%v", err)
		return 1
	}
	workerLog.Infof("session ended cleanly")
	return 0
}
