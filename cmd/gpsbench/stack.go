package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/serve"
	"gps/internal/shard/transport"
)

// replicaStack is the replication path both epoch-dist and
// replicate-churn end in: an origin publisher and feed, served by
// transport.ServeFeed on a byte-counting loopback listener, consumed by
// one serve.ReplicaServer.
type replicaStack struct {
	pub  *serve.Publisher
	feed *serve.Feed
	rep  *serve.ReplicaServer
	lis  *countingListener
	g    group
	stop context.CancelFunc

	// A traced run adds a second, raw subscriber on its own listener. It
	// records when each epoch's frame reached a client, which splits the
	// replica's lag into the feed's share and the apply.
	rawLis  net.Listener
	rawConn *transport.FeedConn
	mu      sync.Mutex
	rawRecv map[int]time.Time
}

// commitTimes is one commit on the origin, as the bench's hook timed it.
type commitTimes struct {
	snapshotMS, snapshotAllocs float64
	publishMS, feedCommitMS    float64
	committed                  time.Time // when Feed.Commit returned
}

func startReplicaStack(wire *atomic.Int64) (*replicaStack, error) {
	lis, err := listenCounting(wire)
	if err != nil {
		return nil, err
	}
	s := &replicaStack{pub: &serve.Publisher{}, feed: serve.NewFeed(0), lis: lis}
	s.g.goFn(func() error { return transport.ServeFeed(lis, s.feed, nil) })
	s.rep = serve.NewReplicaServer(lis.addr(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	s.g.goFn(func() error { return s.rep.Run(ctx) })
	return s, nil
}

// startRawSubscriber subscribes a bare transport.FeedConn, on a listener
// of its own, to every epoch after since.
func (s *replicaStack) startRawSubscriber(since int) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.rawLis = lis
	s.rawRecv = make(map[int]time.Time)
	s.g.goFn(func() error { return transport.ServeFeed(lis, s.feed, nil) })
	conn, err := transport.DialFeed(lis.Addr().String(), since, nil)
	if err != nil {
		return err
	}
	s.rawConn = conn
	s.g.goFn(func() error {
		for {
			ev, err := conn.Recv()
			if err != nil {
				return nil // closed by close()
			}
			now := time.Now()
			s.mu.Lock()
			s.rawRecv[ev.Epoch] = now
			s.mu.Unlock()
		}
	})
	return nil
}

// commit is the bench's commit hook: index the merged inventory, swap it
// in, and hand it to the feed. inv becomes the feed's.
func (s *replicaStack) commit(tr *tracer, parent spanRef, op, epoch int, inv map[netmodel.Key]*continuous.Entry) commitTimes {
	var ct commitTimes
	var snap *serve.Snapshot
	sp := tr.start(parent, op, "serve.snapshot_build")
	ct.snapshotMS, ct.snapshotAllocs = timedAllocs(func() { snap = serve.NewSnapshot(epoch, inv) })
	sp.end("services", int64(len(inv)))
	sp = tr.start(parent, op, "serve.publish")
	ct.publishMS = timed(func() { s.pub.Publish(snap) })
	sp.end()
	sp = tr.start(parent, op, "serve.feed_commit")
	ct.feedCommitMS = timed(func() { s.feed.Commit(epoch, inv) })
	sp.end()
	ct.committed = time.Now()
	return ct
}

// waitVisible blocks until epoch n is replica-visible: the replica's
// re-export feed has committed it and the replica's publisher serves it.
// (Not ReplicaServer.Epoch, which is stored before either.) It waits on
// the feed's own notification, so it neither polls nor burns the CPU the
// replica is using.
func (s *replicaStack) waitVisible(n int) error {
	cancel := make(chan struct{})
	timer := time.AfterFunc(60*time.Second, func() { close(cancel) })
	defer timer.Stop()
	for {
		if s.rep.Feed().Head() >= n {
			if cur := s.rep.Publisher().Current(); cur != nil && cur.Epoch() >= n {
				return nil
			}
		}
		if !s.rep.Feed().Wait(n-1, cancel) {
			return fmt.Errorf("replica feed closed before epoch %d became visible", n)
		}
		select {
		case <-cancel:
			return fmt.Errorf("epoch %d not replica-visible after 60s", n)
		default:
		}
	}
}

// rawRecvTime returns when the raw subscriber received epoch n's frame,
// waiting briefly for a frame still in flight.
func (s *replicaStack) rawRecvTime(n int) (time.Time, bool) {
	for i := 0; i < 2000; i++ {
		s.mu.Lock()
		t, ok := s.rawRecv[n]
		s.mu.Unlock()
		if ok {
			return t, true
		}
		time.Sleep(time.Millisecond)
	}
	return time.Time{}, false
}

// sameServedView checks that the replica serves what the origin serves:
// the /v1/stats and /v1/ports bodies and ETags must be equal.
func (s *replicaStack) sameServedView() error {
	origin := serve.NewServer(s.pub).Handler()
	replica := serve.NewServer(s.rep.Publisher()).Handler()
	for _, path := range []string{"/v1/stats", "/v1/ports"} {
		ob, oe, err := getInProcess(origin, path)
		if err != nil {
			return err
		}
		rb, re, err := getInProcess(replica, path)
		if err != nil {
			return err
		}
		if oe != re || !bytes.Equal(ob, rb) {
			return fmt.Errorf("replica %s differs from origin (etag %s vs %s, %d vs %d bytes)", path, re, oe, len(rb), len(ob))
		}
	}
	return nil
}

// sameInventory checks that the replica holds the origin's inventory,
// byte for byte in the canonical GPSV form.
func (s *replicaStack) sameInventory() error {
	oe, ob := s.feed.Snapshot()
	re, rb := s.rep.Feed().Snapshot()
	if oe != re || !bytes.Equal(ob, rb) {
		return fmt.Errorf("replica inventory (epoch %d, %d bytes) differs from origin's (epoch %d, %d bytes)", re, len(rb), oe, len(ob))
	}
	return nil
}

// close stops the replica, the feed sessions and the listeners, and
// waits for their goroutines.
func (s *replicaStack) close() {
	s.stop()
	s.feed.Close()
	s.lis.Close()
	if s.rawConn != nil {
		s.rawConn.Close()
	}
	if s.rawLis != nil {
		s.rawLis.Close()
	}
	// The only errors are the listeners' own shutdown.
	_ = s.g.wait()
}

// memWriter is an http.ResponseWriter that keeps the response in memory.
type memWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newMemWriter() *memWriter { return &memWriter{hdr: make(http.Header)} }

func (w *memWriter) Header() http.Header { return w.hdr }

func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *memWriter) reset() {
	for k := range w.hdr {
		delete(w.hdr, k)
	}
	w.status = 0
	w.body.Reset()
}

// getInProcess serves one GET through the handler without a socket.
func getInProcess(h http.Handler, path string) (body []byte, etag string, err error) {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return nil, "", err
	}
	w := newMemWriter()
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: status %d", path, w.status)
	}
	return w.body.Bytes(), w.hdr.Get("ETag"), nil
}
