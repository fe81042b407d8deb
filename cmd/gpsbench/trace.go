package main

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/engine"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
	"gps/internal/predict"
	"gps/internal/priors"
	"gps/internal/probmodel"
	"gps/internal/serve"
	"gps/internal/shard"
	"gps/internal/telemetry"
	"gps/internal/trace"
)

// The traced runs. Each workload runs a short untraced baseline, then the
// same ops with the benchmark's spans around every call into a layer,
// and then replays the layers the live op cannot time from outside — the
// model stages inside pipeline.Run, the epoch inside a worker, the apply
// inside the replica — by calling their public functions again on the
// inputs the live op had. A per-layer metric is the median of its per-op
// values. trace.coverage_frac is the time the layers account for over
// the live op's time; trace.overhead_frac is the traced ops' median
// latency over the baseline's, minus one.

// --- pipeline stages -------------------------------------------------------

// stageTimes is the model side of one pipeline.Run, each stage timed by
// calling it again on the run's own inputs.
type stageTimes struct {
	modelMS, modelAllocs        float64
	priorsMS, mpfMS, predictMS  float64
	conds, pairs                float64
	targets, predictions        float64
	probes, found, pipelineRuns float64
}

func (a *stageTimes) add(b stageTimes) {
	a.modelMS += b.modelMS
	a.modelAllocs += b.modelAllocs
	a.priorsMS += b.priorsMS
	a.mpfMS += b.mpfMS
	a.predictMS += b.predictMS
	a.conds += b.conds
	a.pairs += b.pairs
	a.targets += b.targets
	a.predictions += b.predictions
	a.probes += b.probes
	a.found += b.found
	a.pipelineRuns += b.pipelineRuns
}

func (a stageTimes) total() float64 { return a.modelMS + a.priorsMS + a.mpfMS + a.predictMS }

// sample records one op's stages; runMS is the op's pipeline.Run time.
func (a stageTimes) sample(ls layerSamples, runMS float64) {
	ls.add("pipeline.run_ms", runMS)
	ls.add("pipeline.scan_self_ms", runMS-a.total())
	ls.add("probmodel.build_ms", a.modelMS)
	ls.add("probmodel.build_allocs", a.modelAllocs)
	ls.add("probmodel.conds", a.conds)
	ls.add("probmodel.pairs", a.pairs)
	ls.add("priors.build_ms", a.priorsMS)
	ls.add("priors.targets", a.targets)
	ls.add("predict.mpf_ms", a.mpfMS)
	ls.add("predict.predict_ms", a.predictMS)
	ls.add("predict.predictions", a.predictions)
	ls.add("scanner.probes", a.probes)
	if a.probes > 0 {
		ls.add("scanner.hit_ratio", a.found/a.probes)
	}
}

// replayStages re-runs the four model-side stages of the pipeline.Run
// that produced res, on the same training set and configuration.
func replayStages(tr *tracer, parent spanRef, op int, train *dataset.Dataset, cfg pipeline.Config, res *pipeline.Result) (stageTimes, error) {
	eng := engine.Config{Workers: cfg.Workers}
	if cfg.ShardCount > 1 {
		eng.Shards = cfg.ShardCount
	}
	hosts := train.ByHost()
	st := stageTimes{probes: float64(res.TotalScanProbes()), found: float64(len(res.Found)), pipelineRuns: 1}

	var model *probmodel.Model
	sp := tr.start(parent, op, "probmodel.build")
	st.modelMS, st.modelAllocs = timedAllocs(func() {
		model = probmodel.Build(probmodel.Config{
			Families: cfg.Families, Floor: cfg.Floor, AppKeys: cfg.AppKeys,
			MinSupport: cfg.MinSupport, Engine: eng,
		}, hosts)
	})
	st.conds, st.pairs = float64(model.NumConds()), float64(model.NumPairs())
	sp.end("conds", int64(model.NumConds()), "pairs", int64(model.NumPairs()))

	var list priors.List
	sp = tr.start(parent, op, "priors.build")
	st.priorsMS = timed(func() { list = priors.Build(model, hosts, cfg.EffectiveStep(), eng) })
	st.targets = float64(len(list.Targets))
	sp.end("targets", int64(len(list.Targets)))

	var mpf *predict.MPF
	sp = tr.start(parent, op, "predict.mpf")
	st.mpfMS = timed(func() { mpf = predict.BuildMPF(model, hosts, eng) })
	sp.end("rules", int64(mpf.Len()))

	// Predict ran after the priors scan, when exactly the anchors had
	// been found.
	anchored := make(map[netmodel.Key]bool, len(res.Anchors))
	for _, a := range res.Anchors {
		anchored[a.Key()] = true
	}
	var preds []predict.Prediction
	sp = tr.start(parent, op, "predict.predict")
	st.predictMS = timed(func() {
		preds = predict.Predict(model, mpf, res.Anchors, func(k netmodel.Key) bool { return anchored[k] }, eng)
	})
	st.predictions = float64(len(preds))
	sp.end("predictions", int64(len(preds)))

	if len(list.Targets) != len(res.PriorsList.Targets) || len(preds) != len(res.Predictions) {
		return st, fmt.Errorf("replayed stages diverge from the run: %d targets and %d predictions, the run had %d and %d",
			len(list.Targets), len(preds), len(res.PriorsList.Targets), len(res.Predictions))
	}
	return st, nil
}

// --- batch-predict ---------------------------------------------------------

func (w *batchWorld) tracedRun(r *run, want *batchQuality) error {
	ls := layerSamples{}
	var base, traced []float64
	for sec := r.section(1.0 / 3); sec.next(); {
		var win window
		if _, err := w.op(r, &win, want); err != nil {
			return err
		}
		base = append(base, win.lat[0])
	}
	op := 0
	for sec := r.section(2.0 / 3); sec.next(); {
		op++
		root := r.tr.start(spanRef{}, op, "batch-predict.op")
		sp := r.tr.start(root, op, "pipeline.run")
		var win window
		res, err := w.op(r, &win, want)
		if err != nil {
			return err
		}
		sp.end("probes", int64(res.TotalScanProbes()), "found", int64(len(res.Found)))
		root.end()
		traced = append(traced, win.lat[0])

		replay := r.tr.start(spanRef{}, op, "replay")
		st, err := replayStages(r.tr, replay, op, w.seedSet, w.cfg, res)
		replay.end()
		if err != nil {
			r.failf("%v", err)
		}
		st.sample(ls, win.lat[0])
		ls.add("trace.coverage_frac", st.total()/win.lat[0])
	}
	ls.report(r)
	r.metrics["trace.overhead_frac"] = median(traced)/median(base) - 1
	r.notes["trace"] = fmt.Sprintf("%d baseline and %d traced runs; coverage is the four replayed model stages over the run, the scans are the rest", len(base), len(traced))
	return nil
}

// --- inventory codecs and the replica's apply ------------------------------

// replayCommit re-runs, on one commit's base and next inventories, every
// GPSE/GPSV function the origin and the replica ran on them, and returns
// the time of the replica's share: read, clone, apply, rebuild. The
// replica's share runs on replicaBase, the map the replica itself held
// before the commit: equal to base, but as cold in the cache as it was
// for the replica, which on a large inventory is a third of the clone.
func replayCommit(tr *tracer, parent spanRef, op, epoch int, base, next, replicaBase map[netmodel.Key]*continuous.Entry, ls layerSamples) (applyMS float64, err error) {
	step := func(name string, f func()) float64 {
		sp := tr.start(parent, op, name)
		d := timed(f)
		sp.end()
		ls.add(name+"_ms", d)
		return d
	}
	var clone map[netmodel.Key]*continuous.Entry
	applyMS += step("shard.clone_inventory", func() { clone = shard.CloneInventory(replicaBase) })

	var delta *shard.Delta
	step("shard.compute_delta", func() { delta = shard.ComputeDelta(base, next, epoch-1, epoch) })
	var wire bytes.Buffer
	step("shard.write_delta", func() { err = shard.WriteDelta(&wire, delta) })
	if err != nil {
		return 0, err
	}
	ls.add("shard.delta_kb", float64(wire.Len())/1024)
	ls.add("shard.delta_entries", float64(delta.Size()))

	var got *shard.Delta
	applyMS += step("shard.read_delta", func() { got, err = shard.ReadDelta(bytes.NewReader(wire.Bytes())) })
	if err != nil {
		return 0, err
	}
	applyMS += step("shard.apply_delta", func() { err = shard.ApplyDelta(clone, got) })
	if err != nil {
		return 0, err
	}
	sp := tr.start(parent, op, "serve.snapshot_build")
	applyMS += timed(func() { serve.NewSnapshot(epoch, clone) })
	sp.end()

	var inv bytes.Buffer
	step("shard.write_inventory", func() { err = shard.WriteInventory(&inv, next) })
	if err != nil {
		return 0, err
	}
	ls.add("shard.inventory_kb", float64(inv.Len())/1024)
	step("shard.read_inventory", func() { _, err = shard.ReadInventory(bytes.NewReader(inv.Bytes())) })
	return applyMS, err
}

// sampleCommit records the live side of one commit: what the hook timed,
// how long the frame took to reach a raw subscriber, and the rest of the
// replica's lag. It returns the hook's total and the feed lag.
func sampleCommit(stack *replicaStack, epoch int, ct commitTimes, visible time.Time, ls layerSamples) (hookMS, feedLagMS float64, err error) {
	ls.add("serve.snapshot_build_ms", ct.snapshotMS)
	ls.add("serve.snapshot_allocs", ct.snapshotAllocs)
	ls.add("serve.feed_commit_ms", ct.feedCommitMS)
	recv, ok := stack.rawRecvTime(epoch)
	if !ok {
		return 0, 0, fmt.Errorf("raw feed subscriber never received epoch %d", epoch)
	}
	feedLagMS = ms(recv.Sub(ct.committed))
	ls.add("transport.feed_lag_ms", feedLagMS)
	ls.add("serve.replica_apply_ms", ms(visible.Sub(ct.committed))-feedLagMS)
	return ct.snapshotMS + ct.publishMS + ct.feedCommitMS, feedLagMS, nil
}

// --- replicate-churn -------------------------------------------------------

func (w *replicateChurn) tracedRun(r *run) error {
	ls := layerSamples{}
	ls.add("serve.replica_bootstrap_ms", w.bootstrapMS)
	tr := r.tr
	r.tr = nil
	var base window
	for sec := r.section(1.0 / 4); sec.next(); {
		if _, err := w.commit(r, &base); err != nil {
			return err
		}
	}
	r.tr = tr
	if err := w.stack.startRawSubscriber(w.epoch); err != nil {
		return err
	}

	var traced window
	for sec := r.section(3.0 / 4); sec.next(); {
		prev := w.inv
		_, replicaPrev := w.stack.rep.Feed().SnapshotInventory()
		wire0 := w.wire.Load()
		ct, err := w.commit(r, &traced)
		if err != nil {
			return err
		}
		opMS := traced.lat[len(traced.lat)-1]
		ls.add("transport.wire_kb", float64(w.wire.Load()-wire0)/1024)
		hookMS, feedLagMS, err := sampleCommit(w.stack, w.epoch, ct, w.visible, ls)
		if err != nil {
			return err
		}
		replay := tr.start(spanRef{}, w.epoch, "replay")
		applyMS, err := replayCommit(tr, replay, w.epoch, w.epoch, prev, w.inv, replicaPrev, ls)
		replay.end()
		if err != nil {
			return err
		}
		ls.add("trace.coverage_frac", (hookMS+feedLagMS+applyMS)/opMS)
	}
	w.verify(r)
	ls.report(r)
	r.metrics["trace.overhead_frac"] = median(traced.lat)/median(base.lat) - 1
	return checkCoverage(r, base.ops, traced.ops)
}

// checkCoverage fails a traced run whose layers do not sum to the op.
// At the smoke scale an op lasts a few milliseconds and the sum is
// mostly timer noise, so only the benchmark's own scale is held to it.
func checkCoverage(r *run, base, traced int) error {
	cov := r.metrics["trace.coverage_frac"]
	r.notes["trace"] = fmt.Sprintf("%d baseline and %d traced ops", base, traced)
	if !r.sc.smoke && (cov < 0.9 || cov > 1.1) {
		r.failf("trace.coverage_frac %.3f: the layers account for less than 0.9 or more than 1.1 of the op", cov)
	}
	return nil
}

// --- epoch-dist ------------------------------------------------------------

// capture is what a traced repetition keeps of each epoch for the replay:
// every shard's state after the epoch (the next epoch's input), as the
// blob the transport ships, with the time its codec took.
type capture struct {
	blobs        [][][]byte // blobs[e][s]: shard s after epoch e
	encMS, decMS [][]float64
}

func (c *capture) take(e int, states []*continuous.State, ls layerSamples) error {
	blobs := make([][]byte, len(states))
	enc := make([]float64, len(states))
	dec := make([]float64, len(states))
	var kb, encSum, decSum float64
	for s, st := range states {
		var err error
		enc[s] = timed(func() { blobs[s], err = shard.EncodeState(st) })
		if err != nil {
			return err
		}
		dec[s] = timed(func() { _, err = shard.DecodeState(blobs[s]) })
		if err != nil {
			return err
		}
		kb += float64(len(blobs[s])) / 1024
		encSum += enc[s]
		decSum += dec[s]
	}
	c.blobs, c.encMS, c.decMS = append(c.blobs, blobs), append(c.encMS, enc), append(c.decMS, dec)
	if e > 0 {
		ls.add("shard.encode_state_ms", encSum)
		ls.add("shard.decode_state_ms", decSum)
		ls.add("shard.state_kb", kb)
	}
	return nil
}

// setInstrumentation switches the program's own telemetry and tracing,
// through the switches it already has.
func setInstrumentation(on bool) {
	telemetry.Default.SetEnabled(on)
	trace.Default.SetEnabled(on)
}

func (d *epochDist) tracedRun(r *run, ref [32]byte) error {
	ls := layerSamples{}
	tr := r.tr
	r.tr = nil
	var nextOp int
	var wire uint64

	// Warm-up on the set-up's session, as in the untraced run.
	var warm window
	want, err := d.repetition(r, d.first, &warm, &nextOp, &wire)
	ls.add("transport.seed_ms", d.first.seedMS)
	ls.add("serve.replica_bootstrap_ms", d.first.bootstrapMS)
	d.first.close()
	d.first = nil
	if err != nil {
		return err
	}
	r.endWarmup()
	d.check(r, want, want, ref)
	plain := func(win *window) error {
		s, err := d.open(r)
		if err != nil {
			return err
		}
		defer s.close()
		got, err := d.repetition(r, s, win, &nextOp, &wire)
		if err == nil {
			d.check(r, got, want, ref)
		}
		return err
	}

	// The program's instrumentation, on against off, in interleaved
	// repetitions; epochs pair up by their position in the repetition.
	// The "on" repetitions are also the untraced baseline.
	var base []float64
	var delta, allocDelta []float64
	for pairs := max(1, int(r.seconds/7)); pairs > 0; pairs-- {
		var on, off window
		if err := plain(&on); err != nil {
			return err
		}
		setInstrumentation(false)
		err := plain(&off)
		setInstrumentation(true)
		if err != nil {
			return err
		}
		base = append(base, on.lat...)
		for i := range on.lat {
			delta = append(delta, on.lat[i]/off.lat[i]-1)
		}
		allocDelta = append(allocDelta, (float64(on.mallocs)-float64(off.mallocs))/float64(on.ops))
	}
	q1, med, q3 := quartiles(delta)
	r.metrics["instr.overhead_frac"] = med
	r.metrics["instr.allocs_per_epoch"] = median(allocDelta)
	verdict := "resolved"
	if q1 <= 0 && q3 >= 0 {
		verdict = "unresolved: zero is inside the band"
	}
	r.notes["instr.overhead_frac"] = fmt.Sprintf("median %+.4f, quartiles [%+.4f, %+.4f] over %d paired epochs: %s", med, q1, q3, len(delta), verdict)

	// The traced repetition.
	r.tr = tr
	s, err := d.open(r)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.stack.startRawSubscriber(0); err != nil {
		return err
	}
	var capt capture
	if err := capt.take(0, s.coord.States(), ls); err != nil {
		return err
	}
	var capErr error
	wireAt := d.gpst.Load()
	_, replicaInv := s.stack.rep.Feed().SnapshotInventory()
	replicaInvs := []map[netmodel.Key]*continuous.Entry{replicaInv}
	s.afterEpoch = func(e int) {
		_, replicaInv := s.stack.rep.Feed().SnapshotInventory()
		replicaInvs = append(replicaInvs, replicaInv)
		ls.add("transport.wire_kb", float64(d.gpst.Load()-wireAt)/1024)
		if err := capt.take(e, s.coord.States(), ls); err != nil && capErr == nil {
			capErr = err
		}
		wireAt = d.gpst.Load()
	}
	var traced window
	got, err := d.repetition(r, s, &traced, &nextOp, &wire)
	if err == nil {
		err = capErr
	}
	if err != nil {
		return err
	}
	d.check(r, got, want, ref)

	for e := 1; e <= len(traced.lat); e++ {
		if err := d.replayEpoch(r, s, &capt, e, replicaInvs[e-1], ls); err != nil {
			return err
		}
	}
	ls.report(r)
	r.metrics["trace.overhead_frac"] = median(traced.lat)/median(base) - 1
	return checkCoverage(r, len(base), traced.ops)
}

// replayEpoch replays epoch e of the traced session in process, shard by
// shard, and attributes the live op's time to the layers.
func (d *epochDist) replayEpoch(r *run, s *epochSession, capt *capture, e int, replicaBase map[netmodel.Key]*continuous.Entry, ls layerSamples) error {
	live, ct := s.live[e-1], s.commits[e-1]
	replay := r.tr.start(spanRef{}, live.op, "replay")
	defer replay.end()

	resume := func(sh int) (*continuous.Runner, error) {
		before, err := shard.DecodeState(capt.blobs[e-1][sh])
		if err != nil {
			return nil, err
		}
		return continuous.Resume(before, d.world.shardCfg(sh)), nil
	}

	// Each layer alone, shard by shard: the epoch, the pipeline inside
	// it, the model stages inside that. Nothing else runs meanwhile, so
	// times and allocation counts are the layer's own. (Live, two workers
	// share two hardware threads and an epoch takes about half as long
	// again, which is why the live timeline below is measured and not
	// summed from these.)
	var epochMS, allocs, runMS float64
	var stages stageTimes
	after := make([]*continuous.State, epochShards)
	for sh := 0; sh < epochShards; sh++ {
		u := d.world.parts[workerOf(sh)][e]
		cfg := d.world.shardCfg(sh)
		runner, err := resume(sh)
		if err != nil {
			return err
		}
		var stats continuous.EpochStats
		sp := r.tr.start(replay, live.op, "continuous.epoch")
		t, a := timedAllocs(func() { stats, err = runner.Epoch(u) })
		sp.end("shard", int64(sh), "probes", int64(stats.Probes()))
		if err != nil {
			return err
		}
		epochMS += t
		allocs += a
		after[sh] = runner.State()
		if blob, err := shard.EncodeState(after[sh]); err != nil || !bytes.Equal(blob, capt.blobs[e][sh]) {
			r.failf("epoch %d shard %d: the replayed state differs from the live one (%v)", e, sh, err)
		}

		// The discovery pipeline ran on the post-reverify training set
		// with the budget reverify left. A runner whose whole budget is
		// the live reverify's probes stops right there.
		if stats.ReverifyProbes == 0 || stats.DiscoveryProbes == 0 {
			continue
		}
		before, err := shard.DecodeState(capt.blobs[e-1][sh])
		if err != nil {
			return err
		}
		rcfg := cfg
		rcfg.Budget, rcfg.ReverifyFraction = stats.ReverifyProbes, 1
		reverify := continuous.Resume(before, rcfg)
		if _, err := reverify.Epoch(u); err != nil {
			return err
		}
		train := reverify.TrainingSet()
		pcfg := cfg.Pipeline
		pcfg.ShardIndex, pcfg.ShardCount = sh, epochShards
		pcfg.Budget = cfg.Budget - stats.ReverifyProbes
		var res *pipeline.Result
		sp = r.tr.start(replay, live.op, "pipeline.run")
		runMS += timed(func() { res, err = pipeline.Run(u, train, pcfg) })
		sp.end("shard", int64(sh))
		if err != nil {
			return err
		}
		if res.TotalScanProbes() != stats.DiscoveryProbes {
			r.failf("epoch %d shard %d: the replayed pipeline spent %d probes, the epoch's discovery %d", e, sh, res.TotalScanProbes(), stats.DiscoveryProbes)
		}
		st, err := replayStages(r.tr, replay, live.op, train, pcfg, res)
		if err != nil {
			r.failf("epoch %d shard %d: %v", e, sh, err)
		}
		stages.add(st)
	}
	ls.add("continuous.epoch_ms", epochMS)
	ls.add("continuous.self_ms", epochMS-runMS)
	ls.add("continuous.allocs", allocs)
	if stages.pipelineRuns > 0 {
		stages.sample(ls, runMS)
	}

	sp := r.tr.start(replay, live.op, "shard.merge")
	mergeMS := timed(func() { shard.MergeInventories(after) })
	sp.end()
	ls.add("shard.merge_ms", mergeMS)
	applyMS, err := replayCommit(r.tr, replay, live.op, e, s.invs[e-1], s.invs[e], replicaBase, ls)
	if err != nil {
		return err
	}
	hookMS, feedLagMS, err := sampleCommit(s.stack, e, ct, live.visible, ls)
	if err != nil {
		return err
	}

	// The live timeline, from the bench's taps on each worker: when each
	// shard epoch began (the worker asked for its universe) and when its
	// result left. The worker whose last result left last set the epoch;
	// its busy stretches are compute and encoding, the gaps between them
	// are the transport's: the frames, the coordinator decoding a result
	// and issuing the next request, and the scheduler.
	var busyOf []float64
	var critical, gaps float64
	lastLeft := live.start
	for wi := 0; wi < epochWorkers; wi++ {
		began, left := d.world.taps[wi].shardEpochs(live.start, live.returned)
		if len(began) != len(d.world.owned[wi]) {
			return fmt.Errorf("epoch %d: worker %d's tap saw %d shard epochs, it owns %d shards", e, wi, len(began), len(d.world.owned[wi]))
		}
		var busy, idle float64
		at := live.start
		for i := range began {
			idle += ms(began[i].Sub(at))
			busy += ms(left[i].Sub(began[i]))
			at = left[i]
		}
		busyOf = append(busyOf, busy)
		if at.After(lastLeft) {
			lastLeft, critical, gaps = at, busy, idle
		}
	}
	ls.add("transport.rpc_overhead_ms", gaps)
	ls.add("transport.shard_skew", slices.Max(busyOf)/mean(busyOf))
	ls.add("transport.epoch_ms", ms(live.returned.Sub(live.start))-hookMS)

	// After the last result: the coordinator decodes it, merges, and runs
	// the hook; then the feed and the replica. Those are held against
	// their replays, which is what makes coverage a check.
	lastDecode := slices.Max(capt.decMS[e])
	total := ms(live.visible.Sub(live.start))
	ls.add("trace.coverage_frac", (critical+gaps+lastDecode+mergeMS+hookMS+feedLagMS+applyMS)/total)
	return nil
}

// --- query workloads -------------------------------------------------------

// cacheCounts scrapes /v1/metricz for the query cache's hit and miss
// counters.
func cacheCounts(h http.Handler) (hits, misses float64, err error) {
	body, _, err := getInProcess(h, "/v1/metricz")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "gps_query_cache_total{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("metricz line %q: %v", line, err)
		}
		switch {
		case strings.Contains(line, `result="hit"`):
			hits = v
		case strings.Contains(line, `result="miss"`):
			misses = v
		}
	}
	return hits, misses, nil
}

// tracedClosed runs one untraced and one traced closed-loop phase (the
// traced one records a span for every sampled request) and reports what
// the socket side shows: cache and revalidation ratios, bytes per
// response, tracing overhead. It returns the traced phase's mean round
// trip in microseconds.
func (s *queryServer) tracedClosed(r *run, phase func(length time.Duration) ([]window, error)) (rttUS float64, err error) {
	length := time.Duration(r.seconds / 4 * float64(time.Second))
	if _, err := phase(length / 5); err != nil { // warm-up, discarded
		return 0, err
	}
	base, err := phase(length)
	if err != nil {
		return 0, err
	}
	hits0, misses0, err := cacheCounts(s.handler)
	if err != nil {
		return 0, err
	}
	s.resetCounts()
	for _, c := range s.clients {
		c.tr = r.tr
	}
	traced, err := phase(length)
	for _, c := range s.clients {
		c.tr = nil
	}
	if err != nil {
		return 0, err
	}
	hits1, misses1, err := cacheCounts(s.handler)
	if err != nil {
		return 0, err
	}

	var reqs, notModified, bodyBytes int64
	for _, c := range s.clients {
		reqs += c.reqs
		notModified += c.notModified
		bodyBytes += c.bodyBytes
	}
	if lookups := hits1 - hits0 + misses1 - misses0; lookups > 0 {
		r.metrics["serve.cache_hit_ratio"] = (hits1 - hits0) / lookups
	}
	r.metrics["serve.not_modified_ratio"] = float64(notModified) / float64(reqs)
	if full := reqs - notModified; full > 0 {
		r.metrics["serve.bytes_per_resp"] = float64(bodyBytes) / float64(full)
	}
	out := make(map[string]float64)
	latencyMetrics(base, false, out, r.notes)
	baseP50 := out["latency_p50_ms"]
	latencyMetrics(traced, false, out, r.notes)
	r.metrics["trace.overhead_frac"] = out["latency_p50_ms"]/baseP50 - 1
	var sum float64
	var n int
	for _, w := range traced {
		for _, l := range w.lat {
			sum += l
		}
		n += len(w.lat)
	}
	return 1000 * sum / float64(n), nil
}

// handlerReplay serves the requests through the handler in process, with
// an in-memory writer, timing only ServeHTTP, and asks the snapshot the
// same questions directly. follow, when set, is called with each
// response and may return a follow-up request (a cursor walk's next page).
type handlerReplay struct {
	h         http.Handler
	w         *memWriter
	handlerNS time.Duration
	copyNS    time.Duration
	n         int
}

func (hr *handlerReplay) serve(req *http.Request, snap *serve.Snapshot, q query) {
	hr.w.reset()
	t0 := time.Now()
	hr.h.ServeHTTP(hr.w, req)
	hr.handlerNS += time.Since(t0)
	t0 = time.Now()
	switch q.kind {
	case qHost:
		snap.Host(q.ip)
	case qPort:
		snap.Port(q.port, q.offset, q.limit)
	case qASN:
		snap.ASN(q.asn, q.offset, q.limit)
	case qPrefix:
		snap.Prefix16(q.ip, q.offset, q.limit)
	case qStats:
		snap.Stats()
	case qPorts:
		snap.Ports()
	}
	hr.copyNS += time.Since(t0)
	hr.n++
}

// report writes the replay's per-request means and what is left of the
// socket round trip once the handler is taken out.
func (hr *handlerReplay) report(r *run, rttUS float64) {
	handlerUS := float64(hr.handlerNS) / 1e3 / float64(hr.n)
	copyUS := float64(hr.copyNS) / 1e3 / float64(hr.n)
	r.metrics["serve.handler_us"] = handlerUS
	r.metrics["serve.page_copy_us"] = copyUS
	r.metrics["serve.render_self_us"] = handlerUS - copyUS
	r.metrics["net_http.overhead_us"] = rttUS - handlerUS
	r.metrics["trace.coverage_frac"] = handlerUS / rttUS
	r.notes["trace"] = fmt.Sprintf("%d requests replayed through the handler; round trip %.1f us; coverage is the handler's share of it", hr.n, rttUS)
}

func mustRequest(target string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		panic(err) // targets are built from numbers and dotted quads
	}
	return req
}

func (s *queryServer) tracedPoint(r *run, mix *pointMix) error {
	rttUS, err := s.tracedClosed(r, func(length time.Duration) ([]window, error) {
		return s.pointClosed(r, mix, 0, length)
	})
	if err != nil {
		return err
	}

	// The open loop: a fixed offered rate, timed from the due time.
	open, late, err := s.pointOpen(r, mix, seqLength/2, time.Duration(r.seconds/4*float64(time.Second)))
	if err != nil {
		return err
	}
	out := make(map[string]float64)
	latencyMetrics(open, false, out, r.notes)
	r.metrics["loadgen.open_p50_ms"] = out["latency_p50_ms"]
	r.metrics["loadgen.open_tail_ms"] = out["latency_tail_ms"]
	r.metrics["loadgen.late_ms_p99"] = late
	r.notes["open_loop"] = fmt.Sprintf("%g req/s offered on %d connections", r.sc.openLoopRate, len(s.clients))

	// The same request sequence through the handler alone.
	hr := &handlerReplay{h: s.handler, w: newMemWriter()}
	reqs := make(map[uint32]*http.Request)
	etag := ""
	for i := 0; i < 20000; i++ {
		v := mix.seq[0][i%seqLength]
		idx := v &^ revalidateBit
		req, ok := reqs[idx]
		if !ok {
			head := string(mix.table[idx].head)
			req = mustRequest(strings.Fields(head)[1])
			reqs[idx] = req
		}
		req.Header.Del("If-None-Match")
		if v&revalidateBit != 0 && etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		hr.serve(req, s.pub.Current(), mix.table[idx].q)
		etag = hr.w.hdr.Get("ETag")
	}
	hr.report(r, rttUS)
	s.finish(r)
	return nil
}

func (s *queryServer) tracedPage(r *run, shares [][]query) error {
	rttUS, err := s.tracedClosed(r, func(length time.Duration) ([]window, error) {
		return s.pageClosed(r, shares, length)
	})
	if err != nil {
		return err
	}
	hr := &handlerReplay{h: s.handler, w: newMemWriter()}
	snap := s.pub.Current()
	// One walker over every list: a rotation longer than the cache, so
	// the replay misses as the live connections did.
	var walks []query
	for _, share := range shares {
		walks = append(walks, share...)
	}
	for w := 0; hr.n < 2000; w++ {
		q := walks[w%len(walks)]
		q.limit = pageLimit
		base := q.path() + fmt.Sprintf("?limit=%d", pageLimit)
		target := base
		for {
			hr.serve(mustRequest(target), snap, q)
			cur := nextCursor(hr.w.body.Bytes())
			if hr.w.status != http.StatusOK || cur == nil {
				break
			}
			q.offset += pageLimit
			target = base + "&cursor=" + string(cur)
		}
	}
	hr.report(r, rttUS)
	s.finish(r)
	return nil
}
