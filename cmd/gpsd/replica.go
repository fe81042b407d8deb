package main

import (
	"context"

	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/serve"
	"gps/internal/trace"
)

// replicaLog tags the replica and watch modes' lines.
var replicaLog = trace.NewLogger("replica")

// runReplica is the stateless read-replica mode: subscribe to an origin
// daemon's replication feed (-upstream = the origin's -feed address),
// apply per-epoch deltas onto a local inventory, and serve the full /v1
// API — including /v1/watch — on -serve with responses byte-identical
// to the origin's. Nothing is persisted: a restart re-bootstraps from a
// full snapshot frame, and a replica that falls behind the origin's
// retained delta history re-bootstraps by itself. With -feed the
// replica re-exports the stream, so replicas chain into a fan-out tree.
func runReplica(f daemonFlags) int {
	trace.Default.SetProcess("replica")
	rep := serve.NewReplicaServer(f.upstream, &serve.ReplicaOptions{
		FeedHistory: f.feedHistory,
		Logf: func(format string, args ...any) {
			replicaLog.Warnf(format, args...)
		},
	})
	setProcessHealthLive(replicaHealthLive(rep))

	api, err := startInventoryServer(f.serve, rep.Publisher(), rep.Feed(), nil)
	if err != nil {
		replicaLog.Errorf("%v", err)
		return 1
	}
	replicaLog.Infof("replica of %s serving inventory API on http://%s/v1/", f.upstream, api.addr)
	if f.feedAddr != "" {
		addr, err := api.exportFeed(f.feedAddr)
		if err != nil {
			replicaLog.Errorf("%v", err)
			api.shutdown()
			return 1
		}
		replicaLog.Infof("re-exporting replication feed on %s", addr)
	}

	// Run applies the feed until signalled; it keeps serving the last
	// applied snapshot through any upstream outage, so the only exit is
	// ours.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		s := <-notifySignals()
		replicaLog.Infof("%v — draining and stopping cleanly", s)
		cancel()
	}()
	rep.Run(ctx)
	api.shutdown()
	replicaLog.Infof("replica done at epoch %d", rep.Epoch())
	return 0
}

// runWatch is the standalone change-feed consumer: follow a /v1/watch
// stream, fold every event into a local inventory with ApplyTo, and —
// proving the feed's central claim — persist an inventory byte-identical
// to the origin's -inventory artifact. With -epochs N it stops cleanly
// once epoch N is applied; otherwise it follows until signalled or the
// origin closes the stream.
func runWatch(f daemonFlags) int {
	trace.Default.SetProcess("watch")
	inv := make(map[netmodel.Key]*continuous.Entry)
	last := -1

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		s := <-notifySignals()
		replicaLog.Infof("%v — stopping cleanly", s)
		cancel()
	}()

	wc := &serve.WatchClient{URL: f.watchURL, Since: -1}
	err := wc.Follow(ctx, func(ev serve.WatchEvent) error {
		if err := ev.ApplyTo(inv); err != nil {
			return err
		}
		last = ev.Epoch
		replicaLog.Infof("watch: %s to epoch %d (%d services)", ev.Event, ev.Epoch, len(inv))
		if f.epochs > 0 && ev.Epoch >= f.epochs {
			return serve.ErrWatchDone
		}
		return nil
	})
	if err != nil && ctx.Err() == nil {
		replicaLog.Errorf("%v", err)
		return 1
	}
	if f.inventory != "" {
		if err := writeInventoryFile(f.inventory, inv); err != nil {
			replicaLog.Errorf("inventory: %v", err)
			return 1
		}
	}
	replicaLog.Infof("watch done at epoch %d; %d services held", last, len(inv))
	return 0
}
