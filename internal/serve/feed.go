package serve

import (
	"bytes"
	"sync"

	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/shard"
)

// defaultFeedHistory is how many epoch deltas a feed retains when the
// caller does not say. A replica whose subscription epoch has aged out
// of the ring re-bootstraps from a full snapshot, so the depth is the
// "K epochs behind" threshold: at ~9%-per-10-days churn (§3) even a
// modest ring covers any realistic replica outage, while bounding the
// feed's memory to history × churn.
const defaultFeedHistory = 64

// Commit makes inv the inventory served for epoch. It is the one place an
// epoch becomes visible — an origin's commit hook, gpsd serve FILE and a
// replica landing a snapshot or a delta all come through here — so the
// order is written once: index the snapshot (the slow step, first, so
// the two commit points sit back to back), commit the feed, swap the
// publisher. At every observation, by any goroutine, reading right to
// left,
//
//	feed.Head() >= pub.Current().Epoch()
//
// so whoever sees an epoch served can subscribe to the feed from it: a
// chained replica, or a /v1/watch client resuming from an ETag.
//
// A replica passes the delta d it applied to reach inv and the GPSE
// bytes it arrived as, which its feed re-exports as they are; with d nil
// the feed diffs inv against the inventory it retains. feed is nil where
// there is no change feed (serve FILE). inv becomes the feed's to keep.
func Commit(pub *Publisher, feed *Feed, epoch int, inv map[netmodel.Key]*continuous.Entry, d *shard.Delta, gpse []byte) {
	snap := NewSnapshot(epoch, inv)
	switch {
	case feed == nil:
	case d != nil:
		feed.commit(epoch, inv, d.BaseEpoch, gpse)
	default:
		feed.Commit(epoch, inv)
	}
	pub.Publish(snap)
}

// feedDelta is one retained epoch transition, kept in the one form every
// subscriber is served from: its canonical GPSE bytes. A replica session
// frames them as they are; a watch session decodes them into its JSON
// line.
type feedDelta struct {
	base, epoch int
	wire        []byte
}

// Feed is the change-feed hub between the commit path (Commit, above)
// and the replication/watch consumers. Each committed epoch's merged
// inventory is diffed against the previous epoch's retained view, the
// delta kept in a bounded history ring, and every waiting subscriber
// woken. It is the transport layer's FeedSource (Head/Snapshot/Delta/
// Wait): transport.FeedSession drives replica sessions and GET /v1/watch
// alike off those four methods.
//
// All methods are safe for concurrent use.
type Feed struct {
	mu      sync.Mutex
	closed  bool
	epoch   int // last committed epoch; -1 before the first commit
	inv     map[netmodel.Key]*continuous.Entry
	invWire []byte // lazy canonical GPSV bytes of inv
	hist    []feedDelta
	history int
	notify  chan struct{} // closed and replaced on every commit
}

// NewFeed returns a feed retaining up to history epoch deltas;
// history <= 0 selects the default depth.
func NewFeed(history int) *Feed {
	if history <= 0 {
		history = defaultFeedHistory
	}
	return &Feed{epoch: -1, history: history, notify: make(chan struct{})}
}

// Commit records a newly committed epoch and its merged inventory,
// diffing it against the retained one into the delta subscribers are
// served. The map becomes the feed's to keep (the commit-hook contract:
// coordinators build it fresh per commit) and must not be mutated
// afterwards. Non-monotonic epochs are ignored, mirroring
// Publisher.Publish.
func (f *Feed) Commit(epoch int, inv map[netmodel.Key]*continuous.Entry) {
	f.commit(epoch, inv, 0, nil)
}

// commit is Commit for a caller that may already hold the transition: a
// non-nil gpse is the delta advancing base to epoch as it arrived over
// the wire (the replica path, inv being the result of applying it), and
// retaining the origin's bytes re-exports the feed without diffing or
// re-serializing. The bytes become the feed's to keep.
func (f *Feed) commit(epoch int, inv map[netmodel.Key]*continuous.Entry, base int, gpse []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || epoch <= f.epoch {
		return
	}
	if gpse == nil && f.epoch >= 0 {
		var buf bytes.Buffer
		// WriteDelta never fails on an in-memory buffer; were it to, the
		// transition is left out and subscribers at f.epoch re-bootstrap.
		if shard.WriteDelta(&buf, shard.ComputeDelta(f.inv, inv, f.epoch, epoch)) == nil {
			base, gpse = f.epoch, buf.Bytes()
		}
	}
	if gpse != nil && f.epoch >= 0 && base == f.epoch {
		f.hist = append(f.hist, feedDelta{base: base, epoch: epoch, wire: gpse})
		if len(f.hist) > f.history {
			f.hist = f.hist[len(f.hist)-f.history:]
		}
	}
	f.epoch, f.inv, f.invWire = epoch, inv, nil
	feedHeadEpoch.Set(float64(epoch))
	feedHistoryDepth.Set(float64(len(f.hist)))
	close(f.notify) // wake every waiter
	f.notify = make(chan struct{})
}

// Head returns the latest committed epoch, -1 before the first commit.
func (f *Feed) Head() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Snapshot returns the current epoch and its inventory as canonical
// GPSV bytes, serializing at most once per commit.
func (f *Feed) Snapshot() (int, []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.invWire == nil {
		var buf bytes.Buffer
		if err := shard.WriteInventory(&buf, f.inv); err == nil {
			f.invWire = buf.Bytes()
		}
	}
	return f.epoch, f.invWire
}

// SnapshotInventory returns the current epoch and a reference to the
// retained inventory. The map is as-committed and must be treated as
// immutable; a replica clones it as the base of its next delta apply.
func (f *Feed) SnapshotInventory() (int, map[netmodel.Key]*continuous.Entry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch, f.inv
}

// Delta returns the GPSE wire bytes advancing epoch from to the returned
// next epoch, or ok=false when from has aged out of the history (the
// subscriber must re-bootstrap from Snapshot).
func (f *Feed) Delta(from int) ([]byte, int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, fd := range f.hist {
		if fd.base == from {
			return fd.wire, fd.epoch, true
		}
	}
	return nil, 0, false
}

// Wait blocks until the head epoch exceeds epoch, cancel fires, or the
// feed closes. It returns false only when the feed closed for good;
// callers distinguish a cancel by checking their own channel.
func (f *Feed) Wait(epoch int, cancel <-chan struct{}) bool {
	f.mu.Lock()
	for {
		if f.closed {
			f.mu.Unlock()
			return false
		}
		if f.epoch > epoch {
			f.mu.Unlock()
			return true
		}
		ch := f.notify
		f.mu.Unlock()
		select {
		case <-ch:
		case <-cancel:
			return true
		}
		f.mu.Lock()
	}
}

// Close ends the feed: every Wait returns false and subscriber sessions
// shut down cleanly. Further commits are ignored.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	close(f.notify)
	f.notify = make(chan struct{})
}
