package main

import (
	"fmt"

	"gps"
	"gps/internal/dataset"
	"gps/internal/experiments"
	"gps/internal/netmodel"
)

// batch-predict: the paper's one-shot pipeline. gps.Run trains on the
// seed half of a §6.1 split and scans for the rest, single process,
// Workers=0 (the engine's parallel path); gps.Evaluate scores it against
// the held-out half. One op is one gps.Run. No transport, shard or serve
// code runs here, so a change to those layers must not move it.

const batchSeedFraction = 0.1

type batchWorld struct {
	u       *netmodel.Universe
	seedSet *dataset.Dataset
	testSet *dataset.Dataset
	cfg     gps.Config
}

func setupBatchPredict(r *run) (*batchWorld, error) {
	u, all := allServices(r.seed, r.sc.batchPrefixes)
	w := &batchWorld{u: u, cfg: gps.Config{Seed: 7}}
	w.seedSet, w.testSet = experiments.SplitEval(all, batchSeedFraction, true, r.seed)
	if w.seedSet.NumServices() == 0 || w.testSet.NumServices() == 0 {
		return nil, fmt.Errorf("seed %d: empty split (%d seed, %d test services)", r.seed, w.seedSet.NumServices(), w.testSet.NumServices())
	}
	return w, nil
}

// batchQuality is what a run found; it is pinned for the seed, so every
// repetition must reproduce the first exactly.
type batchQuality struct {
	found    int
	probes   uint64
	coverage float64 // held-out services found (Equation 1)
	hitsPerK float64 // held-out services found per 1000 probes
}

func (w *batchWorld) evaluate(res *gps.Result) batchQuality {
	p, _ := gps.Evaluate(res, w.testSet, w.u.SpaceSize())
	return batchQuality{
		found: len(res.Found), probes: res.TotalScanProbes(),
		coverage: p.FracAll, hitsPerK: 1000 * p.Precision,
	}
}

// op runs gps.Run once, charged to win, and checks it against want
// (nil on the first run, which sets it).
func (w *batchWorld) op(r *run, win *window, want *batchQuality) (*gps.Result, error) {
	r.attempted++
	var res *gps.Result
	var err error
	r.speed.read()
	win.timeOp(func() { res, err = gps.Run(w.u, w.seedSet, w.cfg) })
	if err != nil {
		return nil, err
	}
	got := w.evaluate(res)
	if want.found == 0 {
		*want = got
	} else if got != *want {
		r.failf("run found %+v, the first run %+v", got, *want)
	}
	return res, nil
}

func runBatchPredict(r *run) error {
	w, err := timeSetups(r, func() (*batchWorld, error) { return setupBatchPredict(r) }, func(*batchWorld) {})
	if err != nil {
		return err
	}
	var want batchQuality
	var warm window
	if _, err := w.op(r, &warm, &want); err != nil {
		return err
	}
	r.endWarmup()
	if r.traced() {
		return w.tracedRun(r, &want)
	}

	var wins []window
	heap := startHeapSampler()
	for sec := r.section(1); sec.next(); {
		var win window
		if _, err := w.op(r, &win, &want); err != nil {
			return err
		}
		wins = append(wins, win)
	}
	r.metrics["heap_peak_mb"] = heap.peakMB()
	rateMetrics(wins, r.metrics)
	latencyMetrics(wins, true, r.metrics, r.notes)
	r.metrics["coverage_frac"] = want.coverage
	r.metrics["hits_per_kprobe"] = want.hitsPerK
	r.notes["found"] = fmt.Sprint(want.found)
	return nil
}
