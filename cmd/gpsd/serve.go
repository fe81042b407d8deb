package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/serve"
	"gps/internal/shard"
	"gps/internal/shard/transport"
	"gps/internal/trace"
)

// serveLog tags the query-API side channel's lines.
var serveLog = trace.NewLogger("serve")

// inventoryServer is the serve lifecycle of every gpsd mode that answers
// queries — daemon, coordinator, serve FILE and replica: the -serve
// listener over a publisher, /v1/watch over a change feed, the optional
// -feed export, and the feed-first ordered shutdown. An origin's scan
// loop feeds it through the commit hook (readers never block the loop —
// the publisher swap is a single atomic store — and the loop never blocks
// readers); a replica hands in the publisher and feed its ReplicaServer
// commits to. shutdown is nil-safe so the daemon's exit path needs no
// "is serving enabled" branch.
type inventoryServer struct {
	addr string
	pub  *serve.Publisher
	feed *serve.Feed // change feed behind /v1/watch and -feed; nil on the `gpsd serve FILE` path
	srv  *http.Server

	feedLis  net.Listener
	feedDone chan error
}

// startInventoryServer listens on addr and serves the query API over pub
// in the background. Queries answer 503 until the first publish. A
// non-nil feed additionally mounts GET /v1/watch over it; epochs must
// then reach pub and feed through serve.Commit so the two stay in
// lockstep. configure, when non-nil, runs against the server before it
// starts accepting — the hook the coordinator uses to attach the cluster
// control plane.
func startInventoryServer(addr string, pub *serve.Publisher, feed *serve.Feed, configure func(*serve.Server)) (*inventoryServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	api := newAPIServer(pub)
	if feed != nil {
		api.EnableWatch(feed)
	}
	if configure != nil {
		configure(api)
	}
	is := &inventoryServer{
		addr: lis.Addr().String(),
		pub:  pub,
		feed: feed,
		// NewHTTPServer, not a bare http.Server: the read path is public,
		// and without header/read timeouts a slow-loris client pins
		// connections forever.
		srv: serve.NewHTTPServer("", api.Handler()),
	}
	go func() {
		if err := is.srv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			serveLog.Errorf("%v", err)
		}
	}()
	return is, nil
}

// publish is an origin's commit hook: the merged inventory of an epoch
// goes through serve.Commit (index, feed, publisher — in that order).
func (is *inventoryServer) publish(epoch int, inv map[netmodel.Key]*continuous.Entry) {
	serve.Commit(is.pub, is.feed, epoch, inv, nil, nil)
}

// exportFeed serves the replication feed on addr — the -feed listener
// replicas dial — and returns the address it bound.
func (is *inventoryServer) exportFeed(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}
	is.feedLis = lis
	is.feedDone = make(chan error, 1)
	go func() { is.feedDone <- transport.ServeFeed(lis, is.feed, nil) }()
	return lis.Addr(), nil
}

// shutdown drains in-flight queries and closes the listener; part of the
// daemon's clean-exit path.
func (is *inventoryServer) shutdown() {
	if is == nil {
		return
	}
	// Feed first: closing it turns every replica and watch session into a
	// clean end-of-stream instead of a cut connection.
	if is.feed != nil {
		is.feed.Close()
	}
	if is.feedLis != nil {
		is.feedLis.Close()
		if err := <-is.feedDone; err != nil {
			serveLog.Errorf("feed: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if is.srv.Shutdown(ctx) != nil {
		is.srv.Close()
	}
}

// startServing mounts the query API next to a coordinator when -serve
// asks for it (otherwise the nil server, whose shutdown is a no-op): the
// commit hook publishes each epoch, and the seeded (or resumed) inventory is
// published immediately so queries answer from the current state instead
// of 503ing until the first commit. A serving coordinator is always a
// change-feed origin (/v1/watch); -feed additionally exports the feed to
// replicas over the shard transport. configure customizes the server
// before it accepts (health source, cluster control plane).
func startServing(f daemonFlags, coord *shard.Coordinator, configure func(*serve.Server)) (*inventoryServer, error) {
	if f.serve == "" {
		return nil, nil
	}
	api, err := startInventoryServer(f.serve, &serve.Publisher{}, serve.NewFeed(f.feedHistory), configure)
	if err != nil {
		return nil, err
	}
	serveLog.Infof("serving inventory API on http://%s/v1/", api.addr)
	coord.SetCommitHook(api.publish)
	inv, epoch := coord.Inventory()
	api.publish(epoch, inv)
	if f.feedAddr != "" {
		addr, err := api.exportFeed(f.feedAddr)
		if err != nil {
			api.shutdown()
			return nil, err
		}
		serveLog.Infof("serving replication feed on %s", addr)
	}
	return api, nil
}

// serveUntilSignal keeps a daemon whose epochs are done answering
// queries until SIGINT/SIGTERM; a no-op when not serving or when a
// signal already ended the epoch loop.
func serveUntilSignal(api *inventoryServer, sig chan os.Signal, stopped bool) {
	if api == nil || stopped {
		return
	}
	serveLog.Infof("epochs done; serving on %s until SIGINT/SIGTERM", api.addr)
	s := <-sig
	serveLog.Infof("%v — flushing and stopping cleanly", s)
}

// runServeFile is the standalone serving mode: load a GPSV inventory file
// (gpsd -inventory output) and answer queries from it until SIGINT or
// SIGTERM — the read path with no scanner attached, for serving yesterday's
// inventory or somebody else's.
func runServeFile(f daemonFlags) int {
	trace.Default.SetProcess("serve")
	file, err := os.Open(f.serveFile)
	if err != nil {
		serveLog.Errorf("%v", err)
		return 1
	}
	inv, err := shard.ReadInventory(file)
	file.Close()
	if err != nil {
		serveLog.Errorf("%v", err)
		return 1
	}
	// The file records observation epochs, not the commit epoch; the
	// newest observation is the inventory's notion of "now", and it is
	// what Fresh/Stale aggregates key on.
	epoch := 0
	for _, e := range inv {
		if e.LastSeen > epoch {
			epoch = e.LastSeen
		}
	}
	api, err := startInventoryServer(f.serve, &serve.Publisher{}, nil, nil)
	if err != nil {
		serveLog.Errorf("%v", err)
		return 1
	}
	serveLog.Infof("serving inventory API on http://%s/v1/", api.addr)
	api.publish(epoch, inv)
	serveLog.Infof("serving %d services (epoch %d) from %s", len(inv), epoch, f.serveFile)
	s := <-notifySignals()
	serveLog.Infof("%v — stopping cleanly", s)
	api.shutdown()
	return 0
}
