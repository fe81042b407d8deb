package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/shard"
	"gps/internal/shard/transport"
)

// TestCommitOrder extends what TestReplicaEpochInvariant checks for a
// replica to every committer: while a producer drives Commit — diffing
// (d nil) on even epochs, with a known delta (the replica path) on odd
// ones — readers that load the publisher first and the feed second never
// see an epoch served that the feed has not committed.
func TestCommitOrder(t *testing.T) {
	const epochs = 400
	var pub Publisher
	feed := NewFeed(4)
	defer feed.Close()

	var stop atomic.Bool
	var reads atomic.Int64
	readers := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			defer func() { readers <- struct{}{} }()
			for !stop.Load() && !t.Failed() {
				published := -1
				if snap := pub.Current(); snap != nil {
					published = snap.Epoch()
				}
				if head := feed.Head(); head < published {
					t.Errorf("feed.Head()=%d < pub.Current().Epoch()=%d", head, published)
				}
				reads.Add(1)
				runtime.Gosched()
			}
		}()
	}

	prev := testInventory(5, 0)
	Commit(&pub, feed, 0, prev, nil, nil)
	for e := 1; e <= epochs && !t.Failed(); e++ {
		// Yield until a reader has observed the last commit: on one core
		// the producer could otherwise commit every epoch before either
		// reader is scheduled.
		for seen := reads.Load(); reads.Load() == seen && !t.Failed(); {
			runtime.Gosched()
		}
		next := testInventory(5+e%7, e)
		if e%2 == 0 {
			Commit(&pub, feed, e, next, nil, nil)
		} else {
			d := shard.ComputeDelta(prev, next, e-1, e)
			var gpse bytes.Buffer
			if err := shard.WriteDelta(&gpse, d); err != nil {
				t.Fatal(err)
			}
			Commit(&pub, feed, e, next, d, gpse.Bytes())
		}
		if got := pub.Current().Epoch(); got != e || feed.Head() != e {
			t.Fatalf("after Commit(%d): served %d, feed head %d", e, got, feed.Head())
		}
		prev = next
	}
	stop.Store(true)
	<-readers
	<-readers
	if reads.Load() < epochs && !t.Failed() {
		t.Errorf("readers made %d observations over %d epochs; the hammer never ran", reads.Load(), epochs)
	}
	// Both kinds of commit retained their transition: a subscriber two
	// epochs back rides deltas, one of each kind.
	for from := epochs - 2; from < epochs; from++ {
		if _, next, ok := feed.Delta(from); !ok || next != from+1 {
			t.Errorf("feed.Delta(%d) = epoch %d, ok %v; want a retained delta to %d", from, next, ok, from+1)
		}
	}
}

// TestSubscribersAgree runs the two transports of the change feed side by
// side over one Feed: a GPST subscriber (DialFeed, folding frames with
// ReadInventory/ReadDelta/ApplyDelta) and a /v1/watch subscriber
// (WatchClient, folding lines with ApplyTo). After every commit each
// holds exactly the feed's Snapshot() bytes — whether it was there from
// the start, joined late, resumed from an epoch still in the history, or
// resumed from one that has aged out — and Feed.Close ends every stream
// cleanly.
func TestSubscribersAgree(t *testing.T) {
	feed := NewFeed(2)
	var pub Publisher
	invAt := func(epoch int) map[netmodel.Key]*continuous.Entry { return testInventory(12+(epoch*5)%9, epoch) }
	commit := func(epoch int) { Commit(&pub, feed, epoch, invAt(epoch), nil, nil) }
	commit(0)
	addr, shutdown := startOriginFeed(t, feed)
	defer shutdown()
	ts := httptest.NewServer(NewServer(&pub).EnableWatch(feed).Handler())
	defer ts.Close()
	defer feed.Close() // first, so a failed run's watch sessions let ts close

	// A subscriber starts from the inventory of the epoch it resumes
	// from, reports the bytes it holds after each event, and says how its
	// stream finished (nil is a clean end).
	type subscriber struct {
		name  string
		held  chan []byte
		ended chan error
	}
	wireOf := func(inv map[netmodel.Key]*continuous.Entry) []byte {
		var buf bytes.Buffer
		shard.WriteInventory(&buf, inv) // cannot fail on a buffer
		return buf.Bytes()
	}
	start := func(name string, since int, follow func(since int, inv map[netmodel.Key]*continuous.Entry, held chan<- []byte) error) subscriber {
		s := subscriber{name, make(chan []byte, 16), make(chan error, 1)}
		inv := map[netmodel.Key]*continuous.Entry{}
		if since >= 0 {
			inv = shard.CloneInventory(invAt(since))
		}
		go func() { s.ended <- follow(since, inv, s.held) }()
		return s
	}
	gpst := func(since int, inv map[netmodel.Key]*continuous.Entry, held chan<- []byte) error {
		fc, err := transport.DialFeed(addr, since, nil)
		if err != nil {
			return err
		}
		defer fc.Close()
		for {
			ev, err := fc.Recv()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			if ev.Kind == transport.FeedSnapshot {
				inv, err = shard.ReadInventory(bytes.NewReader(ev.Payload))
			} else {
				var d *shard.Delta
				if d, err = shard.ReadDelta(bytes.NewReader(ev.Payload)); err == nil {
					err = shard.ApplyDelta(inv, d)
				}
			}
			if err != nil {
				return err
			}
			held <- wireOf(inv)
		}
	}
	watch := func(since int, inv map[netmodel.Key]*continuous.Entry, held chan<- []byte) error {
		wc := &WatchClient{URL: ts.URL + "/v1/watch", Since: since}
		return wc.Follow(context.Background(), func(ev WatchEvent) error {
			if err := ev.ApplyTo(inv); err != nil {
				return err
			}
			held <- wireOf(inv)
			return nil
		})
	}
	// agree waits until every subscriber holds the feed's current bytes
	// (a subscriber catching up passes through older epochs on the way).
	agree := func(subs []subscriber) {
		t.Helper()
		epoch, want := feed.Snapshot()
		for _, s := range subs {
			for held := false; !held; {
				select {
				case got := <-s.held:
					held = bytes.Equal(got, want)
				case err := <-s.ended:
					t.Fatalf("%s: stream ended before epoch %d: %v", s.name, epoch, err)
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: never held the feed's epoch-%d inventory", s.name, epoch)
				}
			}
		}
	}

	subs := []subscriber{start("gpst", -1, gpst), start("watch", -1, watch)}
	agree(subs)
	for epoch := 1; epoch <= 4; epoch++ {
		commit(epoch)
		agree(subs)
	}
	// At head 4 the 2-deep history holds 2→3 and 3→4: a late joiner and a
	// since=0 subscriber are bootstrapped, a since=3 subscriber rides one
	// delta onto the inventory it already holds.
	subs = append(subs,
		start("late gpst", -1, gpst), start("late watch", -1, watch),
		start("gpst since=3", 3, gpst), start("watch since=3", 3, watch),
		start("gpst since=0", 0, gpst), start("watch since=0", 0, watch))
	agree(subs[2:])
	commit(5)
	agree(subs)

	feed.Close()
	for _, s := range subs {
		select {
		case err := <-s.ended:
			if err != nil {
				t.Errorf("%s: stream ended with %v; want a clean end", s.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: stream did not end on Feed.Close", s.name)
		}
	}
}

// TestWatchEventApplyStrict: ApplyTo is shard.ApplyDelta's strictness —
// a delta whose adds are held, or whose updates or removes are not, means
// the consumer diverged from the stream's base and must error.
func TestWatchEventApplyStrict(t *testing.T) {
	held := WatchEntry{IP: "10.0.0.1", Port: 22, Proto: 1, ASN: 100, TTL: 64, FirstSeen: 1, LastSeen: 1}
	missing := WatchEntry{IP: "10.9.9.9", Port: 80, Proto: 2, ASN: 100, TTL: 64}
	base := func() map[netmodel.Key]*continuous.Entry {
		inv := map[netmodel.Key]*continuous.Entry{}
		if err := (WatchEvent{Event: "snapshot", Services: []WatchEntry{held}}).ApplyTo(inv); err != nil {
			t.Fatal(err)
		}
		return inv
	}
	for name, ev := range map[string]WatchEvent{
		"add of held":       {Event: "delta", Epoch: 1, Adds: []WatchEntry{held}},
		"update of missing": {Event: "delta", Epoch: 1, Updates: []WatchEntry{missing}},
		"remove of missing": {Event: "delta", Epoch: 1, Removes: []WatchKey{{IP: missing.IP, Port: missing.Port}}},
		"unparsable IP":     {Event: "delta", Epoch: 1, Adds: []WatchEntry{{IP: "not-an-ip", Port: 1}}},
		"unknown event":     {Event: "rewind"},
	} {
		if err := ev.ApplyTo(base()); err == nil {
			t.Errorf("%s: ApplyTo succeeded; want an error", name)
		}
	}
	ok := WatchEvent{Event: "delta", Epoch: 1, Adds: []WatchEntry{missing}, Updates: []WatchEntry{held},
		Removes: nil}
	if err := ok.ApplyTo(base()); err != nil {
		t.Errorf("well-formed delta: %v", err)
	}
}

// TestWatchClientURLWithQuery: Follow adds since to whatever query the
// configured URL already carries instead of appending a second "?".
func TestWatchClientURLWithQuery(t *testing.T) {
	feed := NewFeed(2)
	defer feed.Close()
	var pub Publisher
	for e := 0; e <= 2; e++ {
		Commit(&pub, feed, e, testInventory(10+e, e), nil, nil)
	}
	ts := httptest.NewServer(NewServer(&pub).EnableWatch(feed).Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first WatchEvent
	wc := &WatchClient{URL: ts.URL + "/v1/watch?client=test", Since: 1}
	err := wc.Follow(ctx, func(ev WatchEvent) error {
		first = ev
		return ErrWatchDone
	})
	if err != nil {
		t.Fatalf("Follow: %v", err)
	}
	// since=1 reached the server: the stream resumes with the delta from
	// 1, not with the snapshot an absent or mangled since gets.
	if first.Event != "delta" || first.BaseEpoch != 1 || first.Epoch != 2 {
		t.Fatalf("first event %q %d→%d; want the delta 1→2", first.Event, first.BaseEpoch, first.Epoch)
	}
}
