package main

import (
	"sync/atomic"
	"time"

	"gps/internal/continuous"
	"gps/internal/netmodel"
)

// replicate-churn: no scanning. A large inventory takes a small seeded
// churn per commit; each commit is NewSnapshot + Publish + Feed.Commit on
// the origin, then ServeFeed → ReplicaServer until the epoch is
// replica-visible. One op is one commit. The next inventory is prepared
// outside the clock. This is the workload where the replica's
// clone-and-rebuild and the GPSE/GPSV codecs dominate.

// churnFraction is the share of the inventory one commit touches: the
// paper's §3 measures 9% of services churning in ten days.
const churnFraction = 0.09

type replicateChurn struct {
	stack       *replicaStack
	churn       *churner
	inv         map[netmodel.Key]*continuous.Entry // what the feed holds now
	epoch       int
	wire        atomic.Int64
	bootstrapMS float64
	visible     time.Time // when the last commit became replica-visible
}

func setupReplicateChurn(r *run) (*replicateChurn, error) {
	_, all := allServices(r.seed, r.sc.churnPrefixes)
	w := &replicateChurn{}
	w.churn, w.inv = newChurner(r.seed, churnFraction, all.Records)
	var err error
	if w.stack, err = startReplicaStack(&w.wire); err != nil {
		return nil, err
	}
	w.bootstrapMS = timed(func() {
		w.stack.commit(nil, spanRef{}, 0, 0, w.inv)
		err = w.stack.waitVisible(0)
	})
	if err != nil {
		w.stack.close()
		return nil, err
	}
	return w, nil
}

func (w *replicateChurn) close() { w.stack.close() }

// commit prepares the next inventory off the clock, then times one
// commit until it is replica-visible, charging it to win.
func (w *replicateChurn) commit(r *run, win *window) (commitTimes, error) {
	next := w.churn.next(w.inv, w.epoch+1)
	w.epoch++
	r.attempted++
	r.speed.read()
	root := r.tr.start(spanRef{}, w.epoch, "replicate-churn.op")
	c0 := readCounters()
	ct := w.stack.commit(r.tr, root, w.epoch, w.epoch, next)
	vis := r.tr.start(root, w.epoch, "serve.replica_visible")
	err := w.stack.waitVisible(w.epoch)
	vis.end()
	c1 := readCounters()
	root.end()
	if err != nil {
		return ct, err
	}
	win.charge(1, c0, c1)
	win.lat = append(win.lat, ms(c1.t.Sub(c0.t)))
	w.inv, w.visible = next, c1.t
	return ct, nil
}

func runReplicateChurn(r *run) error {
	w, err := timeSetups(r, func() (*replicateChurn, error) { return setupReplicateChurn(r) }, (*replicateChurn).close)
	if err != nil {
		return err
	}
	defer w.close()
	var warm window
	if _, err := w.commit(r, &warm); err != nil {
		return err
	}
	r.endWarmup()
	if r.traced() {
		return w.tracedRun(r)
	}

	var wins []window
	wire0 := w.wire.Load()
	heap := startHeapSampler()
	for sec := r.section(1); sec.next(); {
		var win window
		if _, err := w.commit(r, &win); err != nil {
			return err
		}
		wins = append(wins, win)
	}
	r.metrics["heap_peak_mb"] = heap.peakMB()
	rateMetrics(wins, r.metrics)
	latencyMetrics(wins, true, r.metrics, r.notes)
	r.metrics["wire_kb_per_op"] = float64(w.wire.Load()-wire0) / 1024 / float64(r.attempted)
	w.verify(r)
	return nil
}

// verify checks, after the last commit, that the replica holds the
// origin's inventory byte for byte and serves the same view of it.
func (w *replicateChurn) verify(r *run) {
	if err := w.stack.sameInventory(); err != nil {
		r.failf("%v", err)
	}
	if err := w.stack.sameServedView(); err != nil {
		r.failf("%v", err)
	}
}
