package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gps"
)

// runCoordinator drives a distributed run: dial the worker fleet, seed or
// resume, then stream epochs. The epoch computation happens entirely on
// the workers (each owns a deterministic replica of the universe); the
// coordinator folds the streamed per-shard states into the same merged
// view the in-process daemon maintains, so checkpoints, inventories, and
// log lines are interchangeable between the two modes.
func runCoordinator(f daemonFlags) int {
	gps.Tracing().SetProcess("coordinator")
	addrs := strings.Split(f.workers, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	world := f.world()
	clusterLog := gps.NewLogger("cluster")
	opts := &gps.DistributedOptions{
		Timeout:         f.rpcTimeout,
		RebalanceFactor: f.rebalFactor,
		Logf: func(format string, args ...any) {
			clusterLog.Infof(format, args...)
		},
	}
	coord, err := gps.DialShardWorkers(addrs, f.shardConfig(), world.header(), opts)
	if err != nil {
		mainLog.Errorf("%v", err)
		return 1
	}
	defer coord.Close()
	mainLog.Infof("coordinating %d shards over %d workers (%s)",
		f.shards, len(addrs), f.workers)
	setProcessHealth(func(i *gps.HealthInfo) {
		i.Role = "coordinator"
		i.ShardsOwned = f.shards
	})

	// The join listener makes membership elastic: workers started later
	// with -join register here and receive live shard migrations at the
	// next epoch boundary.
	if f.cluster != "" {
		lis, err := net.Listen("tcp", f.cluster)
		if err != nil {
			mainLog.Errorf("cluster: %v", err)
			return 1
		}
		coord.AcceptJoins(lis)
		mainLog.Infof("accepting joining workers on %s", lis.Addr())
	}

	// Resume from a checkpoint when one exists; otherwise generate the
	// universe locally just long enough to collect the broadcast seed.
	resumed := false
	if f.checkpoint != "" {
		states, topo, err := loadCheckpoint(f.checkpoint, world)
		switch {
		case errors.Is(err, errNoCheckpoint):
			// Fresh start below.
		case err != nil:
			mainLog.Errorf("%v", err)
			return 1
		default:
			known := 0
			for _, st := range states {
				known += len(st.Known)
			}
			mainLog.Infof("resuming from %s at epoch %d (%d known services across %d shards)",
				f.checkpoint, states[0].Epoch, known, len(states))
			if topo.Workers > 0 && topo.Workers != len(addrs) {
				mainLog.Infof("checkpoint was written by a %d-worker fleet; re-homing shards over %d workers",
					topo.Workers, len(addrs))
			}
			if err := coord.Resume(states); err != nil {
				mainLog.Errorf("%v", err)
				return 1
			}
			resumed = true
		}
	}
	if !resumed {
		mainLog.Infof("generating universe (seed=%d, %d /16s, density %.1f%%) for seeding",
			f.seed, f.prefixes, 100*f.density)
		u, err := gps.NewUniverse(gps.DemoUniverseParams(f.seed, f.prefixes, f.density))
		if err != nil {
			mainLog.Errorf("invalid universe flags: %v", err)
			return 2
		}
		// The coordinator holds the full seeding universe, so its world
		// gauges describe the whole world — the total the per-worker
		// partition gauges must sum to (the e2e script asserts this).
		setWorldGauges(u.NumHosts(), f.shards, f.shards)
		if err := coord.Seed(collectSeedSet(u, f)); err != nil {
			mainLog.Errorf("%v", err)
			return 1
		}
	}
	warnEmptyShards(coord.EmptyShards(), resumed)

	var api *inventoryServer
	if f.serve != "" {
		// The serving coordinator is also the cluster control plane:
		// GET /v1/cluster reads the membership doc straight off the
		// coordinator, and the drain endpoint (behind -admin) feeds
		// RequestDrain. The health doc carries the coordinator role.
		configure := func(api *gps.InventoryServer) {
			api.EnableCluster(coord, f.admin)
			api.SetHealthSource(gps.HealthFunc(func() gps.HealthInfo {
				return gps.HealthInfo{Role: "coordinator", ShardsOwned: f.shards}
			}))
		}
		if api, err = startServing(f, coord, configure); err != nil {
			mainLog.Errorf("%v", err)
			return 1
		}
	}

	sig := notifySignals()
	reported := 0
	stopped := false
	for epoch := coord.EpochNumber() + 1; !stopped && (f.epochs == 0 || epoch <= f.epochs); epoch++ {
		select {
		case s := <-sig:
			mainLog.Infof("%v — flushing and stopping cleanly", s)
			stopped = true
			continue
		default:
		}

		start := time.Now()
		stats, err := coord.Epoch()
		for _, we := range coord.Failures()[reported:] {
			mainLog.Warnf("%v — shard re-queued", we)
			reported++
		}
		if err != nil {
			mainLog.Errorf("%v", err)
			return 1
		}
		elapsed := time.Since(start)
		logEpoch(stats, elapsed)

		var ckpt time.Duration
		if f.checkpoint != "" {
			ckptStart := time.Now()
			topo := topology{Workers: len(addrs), Assign: coord.Assignment()}
			if err := saveCheckpoint(f.checkpoint, world, topo, coord.States()); err != nil {
				mainLog.Errorf("checkpoint: %v", err)
				return 1
			}
			ckpt = time.Since(ckptStart)
			checkpointSeconds.Observe(ckpt.Seconds())
		}
		if f.shardCkpts != "" {
			if err := saveShardCheckpoints(f.shardCkpts, coord.States()); err != nil {
				mainLog.Errorf("shard checkpoints: %v", err)
				return 1
			}
		}
		logEpochJSON(stats, elapsed, ckpt)
		if f.interval > 0 && !stopped {
			select {
			case s := <-sig:
				mainLog.Infof("%v — flushing and stopping cleanly", s)
				stopped = true
			case <-time.After(f.interval):
			}
		}
	}
	serveUntilSignal(api, sig, stopped)
	// Close the worker fleet before the final flush: the coordinator
	// holds every shard's state locally, so the checkpoint and inventory
	// need nothing further from the workers, and the shutdown frames land
	// while they are still draining. (The deferred Close stays as the
	// error-path fallback; a second Close is harmless.)
	suffix := fmt.Sprintf(" across %d/%d workers", coord.AliveWorkers(), len(addrs))
	coord.Close()
	return finishDaemon(f, world, topology{Workers: len(addrs), Assign: coord.Assignment()},
		coord.States(), coord.EpochNumber(), api, suffix, coord.Inventory)
}

// saveShardCheckpoints writes each shard's state as its own continuous
// checkpoint (shard-000.ckpt, ...): the per-shard diagnostics CI uploads
// when the distributed gate fails, and the raw material for hand
// re-balancing. Each file lands via the same temp+fsync+rename dance as
// the combined checkpoint (a crash mid-write must not leave a truncated
// file under the final name), and shard files beyond the current layout
// — leftovers of a larger pre-join layout — are removed so the directory
// always describes exactly the current shards.
func saveShardCheckpoints(dir string, states []*gps.ContinuousState) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, st := range states {
		path := filepath.Join(dir, fmt.Sprintf("shard-%03d.ckpt", i))
		tmpf, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
		if err != nil {
			return err
		}
		err = gps.WriteContinuousCheckpoint(tmpf, st)
		if err == nil {
			err = tmpf.Sync()
		}
		if cerr := tmpf.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmpf.Name(), path)
		}
		if err != nil {
			os.Remove(tmpf.Name())
			return err
		}
	}
	for i := len(states); ; i++ {
		stale := filepath.Join(dir, fmt.Sprintf("shard-%03d.ckpt", i))
		if err := os.Remove(stale); err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
	}
}

// runRebalance transforms a checkpoint's shard layout in place: split
// doubles the shard count (each shard's inventory partitions between its
// two successors by re-hashing), join halves it. No scanning happens; a
// subsequent run must pass -shards matching the new count. Worker
// assignments survive: split keeps both halves on the parent's worker,
// join keeps the lower half's.
func runRebalance(f daemonFlags) int {
	if f.checkpoint == "" {
		mainLog.Errorf("gpsd rebalance needs -checkpoint FILE")
		return 2
	}
	world, topo, states, err := readCheckpointFile(f.checkpoint)
	if err != nil {
		mainLog.Errorf("%v", err)
		return 1
	}
	switch f.rebalance {
	case "split":
		if states, err = gps.SplitShardStates(states); err != nil {
			mainLog.Errorf("%v", err)
			return 1
		}
		// Both successors start where the parent lived.
		topo.Assign = append(topo.Assign, topo.Assign...)
		world.Shards *= 2
	case "join":
		if states, err = gps.JoinShardStates(states); err != nil {
			mainLog.Errorf("%v", err)
			return 1
		}
		topo.Assign = topo.Assign[:len(topo.Assign)/2]
		world.Shards /= 2
	default:
		mainLog.Errorf("gpsd rebalance %q: want 'split' or 'join'", f.rebalance)
		return 2
	}
	if err := saveCheckpoint(f.checkpoint, world, topo, states); err != nil {
		mainLog.Errorf("%v", err)
		return 1
	}
	mainLog.Infof("re-balanced %s to %d shards at epoch %d", f.checkpoint, world.Shards, states[0].Epoch)
	return 0
}
