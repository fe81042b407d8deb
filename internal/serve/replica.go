package serve

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/shard"
	"gps/internal/shard/transport"
	"gps/internal/trace"
)

// ReplicaOptions tunes a ReplicaServer.
type ReplicaOptions struct {
	// FeedHistory is the depth of the replica's own re-export feed
	// (replicas chain: a replica serves /v1/watch and can feed further
	// replicas); 0 selects the default.
	FeedHistory int
	// Backoff is the initial reconnect delay after a feed failure,
	// doubling to 16× per attempt; 0 selects 250ms.
	Backoff time.Duration
	// Dial carries the feed connection's timeouts; nil selects the
	// transport defaults.
	Dial *transport.Options
	// Logf receives one line per replica event; nil discards.
	Logf func(format string, args ...any)
}

// ReplicaServer is a stateless read replica: it subscribes to an origin
// daemon's replication feed, applies epoch deltas onto a local
// inventory, and publishes each resulting epoch through its own
// Publisher — so a Server over that publisher serves the full /v1 API
// with ETags identical to the origin's (the ETag is a pure function of
// the epoch, and the bodies are pure functions of the inventory).
//
// "Stateless" is literal: nothing is persisted. A replica that starts,
// restarts, or falls behind the origin's delta history bootstraps from
// a full snapshot frame and catches up; its subscription epoch rides
// the feed protocol, so a live replica only ever transfers the churn.
//
// An applied epoch lives in exactly two places, the re-export feed and
// the publisher, and both are written by Commit, whose order gives the
// replica the same invariant as an origin; Epoch() reads the publisher,
// so Feed().Head() >= Publisher().Current().Epoch() >= Epoch().
type ReplicaServer struct {
	upstream string
	opts     ReplicaOptions // defaults resolved by NewReplicaServer
	pub      *Publisher
	feed     *Feed
	lag      atomic.Int64 // origin head minus applied epoch, per last event
}

// NewReplicaServer prepares a replica of the origin feed at upstream
// (host:port of the origin's -feed listener). Run starts it; Publisher
// and Feed are live immediately (serving 503s until the bootstrap).
func NewReplicaServer(upstream string, opts *ReplicaOptions) *ReplicaServer {
	r := &ReplicaServer{upstream: upstream, pub: &Publisher{}}
	if opts != nil {
		r.opts = *opts
	}
	if r.opts.Backoff <= 0 {
		r.opts.Backoff = 250 * time.Millisecond
	}
	if r.opts.Logf == nil {
		r.opts.Logf = func(string, ...any) {}
	}
	r.feed = NewFeed(r.opts.FeedHistory)
	return r
}

// Publisher returns the replica's snapshot publisher; wrap it in a
// Server to serve the /v1 API.
func (r *ReplicaServer) Publisher() *Publisher { return r.pub }

// Feed returns the replica's re-export feed: it carries every epoch the
// replica applies, backing a local /v1/watch (and, chained through
// transport.ServeFeed, further replicas).
func (r *ReplicaServer) Feed() *Feed { return r.feed }

// Epoch returns the last applied epoch — the one being served — or -1
// before the first bootstrap.
func (r *ReplicaServer) Epoch() int {
	if snap := r.pub.Current(); snap != nil {
		return snap.Epoch()
	}
	return -1
}

// Health implements HealthSource: a replica is "starting" until its
// first bootstrap frame lands, and reports how many epochs it trails
// the origin after that.
func (r *ReplicaServer) Health() HealthInfo {
	return HealthInfo{
		Role:          "replica",
		Bootstrapping: r.Epoch() < 0,
		FeedLag:       int(r.lag.Load()),
	}
}

// Run subscribes and applies the feed until ctx ends, redialing with
// backoff across origin restarts and connection failures. It always
// returns nil after ctx ends; the replica keeps serving its last
// applied snapshot throughout any upstream outage.
func (r *ReplicaServer) Run(ctx context.Context) error {
	defer r.feed.Close()
	delay := r.opts.Backoff
	since := r.Epoch()
	for ctx.Err() == nil {
		fc, err := transport.DialFeed(r.upstream, since, r.opts.Dial)
		if err != nil {
			r.opts.Logf("replica: dialing %s: %v", r.upstream, err)
		} else {
			// A dead context must unblock Recv: close the connection under it.
			stop := context.AfterFunc(ctx, func() { fc.Close() })
			before := r.Epoch()
			since = r.consume(ctx, fc)
			stop()
			fc.Close()
			if r.Epoch() != before {
				// The connection made progress; don't punish the next dial
				// for an origin restart that happened epochs later.
				delay = r.opts.Backoff
			}
		}
		if !r.sleep(ctx, delay) {
			return nil
		}
		delay = r.nextDelay(delay)
		replicaReconnects.Inc()
	}
	return nil
}

// consume drains one feed connection until it fails or desyncs,
// returning the epoch the next subscription should resume from.
func (r *ReplicaServer) consume(ctx context.Context, fc *transport.FeedConn) int {
	for {
		ev, err := fc.Recv()
		if err != nil {
			if ctx.Err() == nil {
				r.opts.Logf("replica: feed from %s ended: %v", r.upstream, err)
			}
			return r.Epoch()
		}
		switch ev.Kind {
		case transport.FeedSnapshot:
			inv, err := shard.ReadInventory(bytes.NewReader(ev.Payload))
			if err != nil {
				r.opts.Logf("replica: undecodable snapshot for epoch %d: %v", ev.Epoch, err)
				return -1 // refuse the stream; re-bootstrap from scratch
			}
			if ev.Epoch <= r.Epoch() {
				// The origin restarted behind what this replica serves.
				// Served epochs never move backward, so keep serving and
				// re-bootstrap once the origin has passed it.
				r.opts.Logf("replica: origin snapshot at epoch %d is behind served epoch %d", ev.Epoch, r.Epoch())
				return -1
			}
			r.land(ev, inv, nil)
			replicaBootstraps.Inc()
			r.opts.Logf("replica: bootstrapped at epoch %d (%d services)", ev.Epoch, len(inv))
		case transport.FeedDelta:
			applySpan := trace.StartSpan(trace.SpanContext{}, "replica.apply",
				trace.Int("epoch", ev.Epoch), trace.Int("delta_bytes", len(ev.Payload)))
			d, err := shard.ReadDelta(bytes.NewReader(ev.Payload))
			if err != nil || d.BaseEpoch != r.Epoch() {
				if err == nil {
					err = fmt.Errorf("delta base epoch %d does not match replica epoch %d", d.BaseEpoch, r.Epoch())
				}
				applySpan.FinishErr(err)
				r.opts.Logf("replica: delta for epoch %d unusable: %v", ev.Epoch, err)
				return -1
			}
			// Deltas apply to a clone, so every map ever handed to the
			// feed or the publisher stays frozen.
			_, cur := r.feed.SnapshotInventory()
			next := shard.CloneInventory(cur)
			if err := shard.ApplyDelta(next, d); err != nil {
				applySpan.FinishErr(err)
				r.opts.Logf("replica: applying delta %d→%d: %v", d.BaseEpoch, d.Epoch, err)
				return -1
			}
			r.land(ev, next, d)
			replicaDeltasApplied.Inc()
			applySpan.SetAttr(trace.Int("services", len(next)))
			applySpan.Finish()
		}
	}
}

// land commits the inventory an event produced — d is the delta that
// was applied, nil for a snapshot — and records how far behind the
// origin's head it leaves the replica. The lag is stored first so that
// whoever sees the epoch served reads the lag that goes with it.
func (r *ReplicaServer) land(ev transport.FeedEvent, inv map[netmodel.Key]*continuous.Entry, d *shard.Delta) {
	r.lag.Store(int64(ev.Head - ev.Epoch))
	Commit(r.pub, r.feed, ev.Epoch, inv, d, ev.Payload)
	replicaLag.Set(float64(ev.Head - ev.Epoch))
}

func (r *ReplicaServer) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (r *ReplicaServer) nextDelay(d time.Duration) time.Duration {
	if max := 16 * r.opts.Backoff; d >= max {
		return max
	}
	return 2 * d
}
