package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"

	"gps"
	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/serve"
	"gps/internal/shard"
	"gps/internal/shard/transport"
	"gps/internal/trace"
)

// runCoordinator drives a distributed run: dial the worker fleet, seed or
// resume, then stream epochs. The epoch computation happens entirely on
// the workers (each owns a deterministic replica of the universe); the
// coordinator folds the streamed per-shard states into the same merged
// view the in-process daemon maintains, so checkpoints, inventories, and
// log lines are interchangeable between the two modes.
func runCoordinator(f daemonFlags) int {
	trace.Default.SetProcess("coordinator")
	addrs := strings.Split(f.workers, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	world := f.world()
	clusterLog := trace.NewLogger("cluster")
	opts := &transport.Options{
		Timeout:         f.rpcTimeout,
		RebalanceFactor: f.rebalFactor,
		Logf: func(format string, args ...any) {
			clusterLog.Infof(format, args...)
		},
	}
	coord, err := transport.Dial(addrs, f.shardConfig(), world.header(), opts)
	if err != nil {
		mainLog.Errorf("%v", err)
		return 1
	}
	defer coord.Close()
	mainLog.Infof("coordinating %d shards over %d workers (%s)",
		f.shards, len(addrs), f.workers)

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
	// universe locally just long enough to collect the seed.
	states, topo, err := resumeStates(f, world)
	if err != nil {
		mainLog.Errorf("%v", err)
		return 1
	}
	if states != nil {
		if topo.Workers > 0 && topo.Workers != len(addrs) {
			mainLog.Infof("checkpoint was written by a %d-worker fleet; re-homing shards over %d workers",
				topo.Workers, len(addrs))
		}
		if err := coord.Resume(states); err != nil {
			mainLog.Errorf("%v", err)
			return 1
		}
	} else {
		mainLog.Infof("generating universe (seed=%d, %d /16s, density %.1f%%) for seeding",
			f.seed, f.prefixes, 100*f.density)
		u, err := netmodel.GenerateChecked(gps.DemoUniverseParams(f.seed, f.prefixes, f.density))
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
	warnEmptyShards(coord.EmptyShards(), states != nil)

	fleet := &fleetCoordinator{Coordinator: coord}
	var api *inventoryServer
	if f.serve != "" {
		// The serving coordinator is also the cluster control plane:
		// GET /v1/cluster reads the membership doc straight off the
		// coordinator, and the drain endpoint (behind -admin) feeds
		// RequestDrain.
		configure := func(api *serve.Server) { api.EnableCluster(coord, f.admin) }
		if api, err = startServing(f, fleet, configure); err != nil {
			mainLog.Errorf("%v", err)
			return 1
		}
	}

	if code := runEpochs(f, world, fleet, api); code != 0 {
		return code
	}
	// Close the worker fleet before the final flush: the coordinator
	// holds every shard's state locally, so the checkpoint and inventory
	// need nothing further from the workers, and the shutdown frames land
	// while they are still draining. (The deferred Close stays as the
	// error-path fallback; a second Close is harmless.)
	suffix := fleet.exitSuffix()
	coord.Close()
	return finishDaemon(f, world, fleet, api, suffix)
}

// fleetCoordinator adapts the distributed coordinator to the epoch
// loop: each epoch reports the worker failures it survived, and the
// topology it checkpoints is the live fleet's — WorkerAddrs, not the
// -workers list, because Assignment indexes a fleet that grows with
// every admitted -join.
type fleetCoordinator struct {
	*transport.Coordinator
	reported int
}

func (c *fleetCoordinator) Epoch() (continuous.EpochStats, error) {
	stats, err := c.Coordinator.Epoch()
	for _, we := range c.Failures()[c.reported:] {
		mainLog.Warnf("%v — shard re-queued", we)
		c.reported++
	}
	return stats, err
}

func (c *fleetCoordinator) topology() topology {
	return topology{Workers: len(c.WorkerAddrs()), Assign: c.Assignment()}
}

// exitSuffix is the fleet's share of the exit line: living workers over
// the fleet the run ended with.
func (c *fleetCoordinator) exitSuffix() string {
	return fmt.Sprintf(" across %d/%d workers", c.AliveWorkers(), len(c.WorkerAddrs()))
}

// saveShardCheckpoints writes each shard's state as its own continuous
// checkpoint (shard-000.ckpt, ...): the per-shard diagnostics CI uploads
// when the distributed gate fails, and the raw material for hand
// re-balancing. Each file lands via atomicWriteFile like the combined
// checkpoint, and shard files beyond the current layout — leftovers of a
// larger pre-join layout — are removed so the directory always describes
// exactly the current shards.
func saveShardCheckpoints(dir string, states []*continuous.State) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, st := range states {
		path := filepath.Join(dir, fmt.Sprintf("shard-%03d.ckpt", i))
		err := atomicWriteFile(path, func(w io.Writer) error { return continuous.WriteCheckpoint(w, st) })
		if err != nil {
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
		if states, err = shard.SplitStates(states); err != nil {
			mainLog.Errorf("%v", err)
			return 1
		}
		// Both successors start where the parent lived.
		topo.Assign = append(topo.Assign, topo.Assign...)
		world.Shards *= 2
	case "join":
		if states, err = shard.JoinStates(states); err != nil {
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
