package main

import (
	"net"
	"strings"

	"gps/internal/netmodel"
	"gps/internal/serve"
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

	code := seedOrResume(f, world, len(addrs), func() (*netmodel.Universe, error) {
		w, err := fullDemoWorld(f, " for seeding")
		if err != nil {
			return nil, err
		}
		return w.u, nil
	}, coord.Resume, coord.Seed)
	if code != 0 {
		return code
	}
	warnEmptyShards(coord.EmptyShards())

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
