package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"

	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/serve"
	"gps/internal/shard"
	"gps/internal/shard/transport"
	"gps/internal/trace"
)

// runCoordinator drives a distributed run: dial the worker fleet, seed or
// resume, then stream epochs. It is the same coordinator the in-process
// daemon runs, over GPST executors: the epoch computation happens on the
// workers (each owns a deterministic replica of the universe), and the
// states they stream back are committed, merged, checkpointed and logged
// by the same code in both modes.
func runCoordinator(f daemonFlags) int {
	trace.Default.SetProcess("coordinator")
	addrs := strings.Split(f.workers, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	world := f.world()
	clusterLog := trace.NewLogger("cluster")
	opts := &transport.Options{
		Timeout: f.rpcTimeout,
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

	resumed, code := seedOrResume(f, world, len(addrs), func() (*netmodel.Universe, error) {
		w, err := fullDemoWorld(f, " for seeding")
		if err != nil {
			return nil, err
		}
		return w.u, nil
	}, coord.Resume, coord.Seed)
	if code != 0 {
		return code
	}
	warnEmptyShards(coord.EmptyShards(), resumed)

	// The serving coordinator is also the cluster control plane:
	// GET /v1/cluster reads the membership doc straight off the
	// coordinator, and the drain endpoint (behind -admin) feeds
	// RequestDrain.
	api, err := startServing(f, coord.Coordinator, func(api *serve.Server) { api.EnableCluster(coord, f.admin) })
	if err != nil {
		mainLog.Errorf("%v", err)
		return 1
	}

	if code := runEpochs(f, world, coord.Coordinator, coord.Epoch, api); code != 0 {
		return code
	}
	// Close the worker fleet before the final flush: the coordinator
	// holds every shard's state locally, so the checkpoint and inventory
	// need nothing further from the workers, and the shutdown frames land
	// while they are still draining. (The deferred Close stays as the
	// error-path fallback; a second Close is harmless.)
	coord.Close()
	return finishDaemon(f, world, coord.Coordinator, api)
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
