package gps_test

// The micro-benchmarks perf PRs quote (ROADMAP's re-anchor table): the
// model build and lookup, prediction throughput, one batch gps.Run, one
// continuous and one sharded epoch from the seed, one continuous epoch at
// steady state, the serving layer's snapshot build and query path, and
// the commit path's snapshot, delta and clone-and-apply.
// The paper's tables and figures are reproduced by cmd/gpseval; the
// end-to-end epoch and query clocks are measured by cmd/gpsbench.
//
//	go test -run '^$' -bench . -benchmem .

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"gps"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/engine"
	"gps/internal/experiments"
	"gps/internal/netmodel"
	"gps/internal/predict"
	"gps/internal/probmodel"
	"gps/internal/serve"
	"gps/internal/shard"
)

var (
	benchOnce  sync.Once
	benchSetup *experiments.Setup
)

func setupBench(b testing.TB) *experiments.Setup {
	b.Helper()
	benchOnce.Do(func() {
		benchSetup = experiments.NewSetup(experiments.SmallScale(2024))
	})
	return benchSetup
}

// BenchmarkContinuousEpoch times one epoch of the continuous scanning
// subsystem at small scale: re-verify the inventory, re-train the model
// on it, and run budgeted discovery against a freshly churned universe.
func BenchmarkContinuousEpoch(b *testing.B) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 91)
	world := netmodel.Churn(s.Universe, netmodel.DefaultChurn(91))
	cfg := continuous.Config{Budget: 20 * s.Universe.SpaceSize()}
	var stats continuous.EpochStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := continuous.New(seedSet, cfg)
		var err error
		if stats, err = r.Epoch(world); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.KnownSize), "known-services")
	b.ReportMetric(stats.Freshness.AliveFrac(), "alive-frac")
}

// BenchmarkContinuousEpochSteady times the epoch a long-running daemon
// runs right after a placement (start, resume, failover): epoch 4,
// resumed from the state three churned epochs left, which compiles its
// whole training set into condition ids in its retrain phase. The three epochs and
// each iteration's decode of their checkpoint run off the clock, so only
// epoch 4 and its allocations are measured.
func BenchmarkContinuousEpochSteady(b *testing.B) {
	ck, cfg, world := steadyState(b)
	var (
		stats  continuous.EpochStats
		phases continuous.PhaseTimes
		wall   time.Duration
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := resumeBench(b, ck, cfg)
		b.StartTimer()
		start := time.Now()
		var err error
		if stats, err = r.Epoch(world); err != nil {
			b.Fatal(err)
		}
		wall += time.Since(start)
		addPhases(&phases, stats.Phases)
	}
	b.ReportMetric(float64(stats.KnownSize), "known-services")
	b.ReportMetric(stats.Freshness.AliveFrac(), "alive-frac")
	reportPhases(b, phases, wall)
}

// BenchmarkContinuousEpochWarm times the daemon's steady state: epoch 5
// of a runner resumed from the same state as ContinuousEpochSteady, whose
// epoch 4 ran off the clock, so only the records that training set lacks
// or holds changed are compiled.
func BenchmarkContinuousEpochWarm(b *testing.B) {
	ck, cfg, world := steadyState(b)
	next := netmodel.Churn(world, netmodel.DefaultChurn(95))
	var (
		stats  continuous.EpochStats
		phases continuous.PhaseTimes
		wall   time.Duration
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := resumeBench(b, ck, cfg)
		if _, err := r.Epoch(world); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		var err error
		if stats, err = r.Epoch(next); err != nil {
			b.Fatal(err)
		}
		wall += time.Since(start)
		addPhases(&phases, stats.Phases)
	}
	b.ReportMetric(float64(stats.KnownSize), "known-services")
	b.ReportMetric(stats.Freshness.AliveFrac(), "alive-frac")
	reportPhases(b, phases, wall)
}

// steadyState runs three churned epochs from the mid-size seed and
// returns their checkpoint, the runner config and the universe of epoch 4.
func steadyState(b *testing.B) ([]byte, continuous.Config, *netmodel.Universe) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 91)
	cfg := continuous.Config{Budget: 20 * s.Universe.SpaceSize()}
	world := s.Universe
	r := continuous.New(seedSet, cfg)
	for e := 1; e <= 3; e++ {
		world = netmodel.Churn(world, netmodel.DefaultChurn(90+int64(e)))
		if _, err := r.Epoch(world); err != nil {
			b.Fatal(err)
		}
	}
	var ck bytes.Buffer
	if err := continuous.WriteCheckpoint(&ck, r.State()); err != nil {
		b.Fatal(err)
	}
	return ck.Bytes(), cfg, netmodel.Churn(world, netmodel.DefaultChurn(94))
}

// resumeBench decodes a checkpoint and resumes a runner from it.
func resumeBench(b *testing.B, ck []byte, cfg continuous.Config) *continuous.Runner {
	st, err := continuous.ReadCheckpoint(bytes.NewReader(ck))
	if err != nil {
		b.Fatal(err)
	}
	return continuous.Resume(st, cfg)
}

// addPhases accumulates one epoch's phase split into sum.
func addPhases(sum *continuous.PhaseTimes, p continuous.PhaseTimes) {
	sum.Reverify += p.Reverify
	sum.Retrain += p.Retrain
	sum.Discover += p.Discover
	sum.Fold += p.Fold
}

// reportPhases reports the mean per-iteration phase split of the epochs
// summed into sum, in milliseconds, and as other-ms the part of their
// summed wall time no phase timed.
func reportPhases(b *testing.B, sum continuous.PhaseTimes, wall time.Duration) {
	for _, ph := range []struct {
		d    time.Duration
		unit string
	}{
		{sum.Reverify, "reverify-ms"}, {sum.Retrain, "retrain-ms"},
		{sum.Discover, "discover-ms"}, {sum.Fold, "fold-ms"},
		{wall - sum.Reverify - sum.Retrain - sum.Discover - sum.Fold, "other-ms"},
	} {
		b.ReportMetric(float64(ph.d.Microseconds())/1e3/float64(b.N), ph.unit)
	}
}

// BenchmarkShardEpoch times one sharded continuous epoch: N runners
// re-verifying and discovering concurrently, each on its own partition.
// Its phase metrics are the bounding shard's (shard.MergeStats), and its
// other-ms is the epoch call's wall time beyond them (the coordinator's
// fan-out, merge and commit).
func BenchmarkShardEpoch(b *testing.B) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 91)
	world := netmodel.Churn(s.Universe, netmodel.DefaultChurn(91))
	cfg := shard.Config{
		Shards:     4,
		Continuous: continuous.Config{Budget: 20 * s.Universe.SpaceSize()},
	}
	var (
		stats  continuous.EpochStats
		phases continuous.PhaseTimes
		wall   time.Duration
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := shard.NewCoordinator(seedSet, cfg)
		start := time.Now()
		var err error
		if stats, err = c.Epoch(world); err != nil {
			b.Fatal(err)
		}
		wall += time.Since(start)
		addPhases(&phases, stats.Phases)
	}
	b.ReportMetric(float64(stats.KnownSize), "known-services")
	reportPhases(b, phases, wall)
}

// benchInventory builds a merged-inventory view of the LZR snapshot: the
// shape the serving layer indexes every epoch.
func benchInventory(s *experiments.Setup) map[netmodel.Key]*continuous.Entry {
	inv := make(map[netmodel.Key]*continuous.Entry, s.LZR.NumServices())
	for _, r := range s.LZR.Records {
		inv[r.Key()] = &continuous.Entry{Rec: r, FirstSeen: 1, LastSeen: 3}
	}
	return inv
}

// BenchmarkSnapshotBuild times the producer side of the serving split:
// indexing one committed inventory into an immutable snapshot (secondary
// indexes by host, port, /16, ASN plus the aggregates). This is the
// per-epoch cost -serve adds to the scan loop.
func BenchmarkSnapshotBuild(b *testing.B) {
	s := setupBench(b)
	inv := benchInventory(s)
	var snap *serve.Snapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap = serve.NewSnapshot(3, inv)
	}
	b.ReportMetric(float64(snap.NumServices()), "services")
}

// commitPathInventories is one replicate-churn commit (cmd/gpsbench):
// every service of a 32-/16 world at 3% density, a tenth of it held
// out, and one 9% churn step that adds a third of the churn from the
// held-out tenth, removes a third and re-observes a third.
func commitPathInventories() (base, next map[netmodel.Key]*continuous.Entry) {
	u := netmodel.Generate(gps.DemoUniverseParams(1, 32, 0.03))
	recs := dataset.SnapshotLZR(u, 1.0, 1^0x11).Records
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key().Compare(recs[j].Key()) < 0 })
	base = make(map[netmodel.Key]*continuous.Entry, len(recs))
	var present []netmodel.Key
	var held []dataset.Record
	for i, rec := range recs {
		rec.Feats = nil
		if i%10 == 9 {
			held = append(held, rec)
			continue
		}
		base[rec.Key()] = &continuous.Entry{Rec: rec}
		present = append(present, rec.Key())
	}
	next = shard.CloneInventory(base)
	rng := rand.New(rand.NewSource(1))
	n := len(present) * 9 / 100 / 3
	rng.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
	for i := 0; i < n; i++ {
		rec := held[rng.Intn(len(held))]
		next[rec.Key()] = &continuous.Entry{Rec: rec, FirstSeen: 1, LastSeen: 1}
		delete(next, present[i])
		next[present[n+i]].LastSeen = 1
	}
	return base, next
}

// BenchmarkCommitPath times the three canonical-order passes one
// replicated commit pays on a ~130k-service inventory: the snapshot
// build (origin and replica each run one), the origin's delta, and the
// replica's clone-and-apply. They are the layers gpsbench's traced
// replicate-churn op reports as serve.snapshot_build_ms,
// shard.compute_delta_ms and shard.clone_inventory_ms +
// shard.apply_delta_ms.
func BenchmarkCommitPath(b *testing.B) {
	base, next := commitPathInventories()
	d := shard.ComputeDelta(base, next, 0, 1)
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve.NewSnapshot(1, next)
		}
		b.ReportMetric(float64(len(next)), "services")
	})
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			shard.ComputeDelta(base, next, 0, 1)
		}
		b.ReportMetric(float64(d.Size()), "changes")
	})
	b.Run("clone_apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := shard.ApplyDelta(shard.CloneInventory(base), d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeQuery measures the read path under fire: query latency
// through the full HTTP handler (routing, snapshot load, in-place JSON
// render) while a committer goroutine keeps swapping fresh
// snapshots in — the serving claim is precisely that commits never stall
// readers, so the tail latencies are reported alongside the mean.
func BenchmarkServeQuery(b *testing.B) {
	s := setupBench(b)
	inv := benchInventory(s)
	var pub serve.Publisher
	pub.Publish(serve.NewSnapshot(1, inv))
	h := serve.NewServer(&pub).Handler()

	rec := s.LZR.Records[0]
	paths := []string{
		"/v1/stats",
		fmt.Sprintf("/v1/port/%d?limit=100", rec.Port),
		fmt.Sprintf("/v1/host/%s", rec.IP),
		fmt.Sprintf("/v1/asn/%d", rec.ASN),
		"/v1/ports",
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the epoch-commit side, as hostile as it gets
		defer wg.Done()
		for e := 2; ; e++ {
			select {
			case <-stop:
				return
			default:
				pub.Publish(serve.NewSnapshot(e, inv))
			}
		}
	}()

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil)
		rr := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		lat = append(lat, time.Since(t0))
		if rr.Code != http.StatusOK {
			b.Fatalf("GET %s: %d", paths[i%len(paths)], rr.Code)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-us")
	b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-us")
}

func BenchmarkModelBuild(b *testing.B) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 81)
	hosts := seedSet.ByHost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := probmodel.Build(probmodel.Config{}, hosts)
		_ = m
	}
}

// TestModelBuildAllocs: on BenchmarkModelBuild's fixture, Build allocates
// its tables and their growth steps, not a map entry or a string per
// condition (the string-keyed model took 13,919 allocations here; the
// interned one takes under 200).
func TestModelBuildAllocs(t *testing.T) {
	s := setupBench(t)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 81)
	hosts := seedSet.ByHost()
	conds := probmodel.Build(probmodel.Config{}, hosts).NumConds()
	if n := testing.AllocsPerRun(3, func() { probmodel.Build(probmodel.Config{}, hosts) }); n > 500 {
		t.Errorf("Build allocates %v times for %d conditions; want at most 500", n, conds)
	}
}

func BenchmarkProbLookup(b *testing.B) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 81)
	hosts := seedSet.ByHost()
	m := probmodel.Build(probmodel.Config{}, hosts)
	id := m.Resolve(dataset.Record{Port: 80}, new(probmodel.Scratch))[0] // the condition (80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ProbID(id, 443)
	}
}

func BenchmarkPredictionThroughput(b *testing.B) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 83)
	hosts := seedSet.ByHost()
	m := probmodel.Build(probmodel.Config{}, hosts)
	mpf := predict.BuildMPF(m, hosts, engine.Config{})
	var anchors []dataset.Record
	for _, h := range hosts {
		anchors = append(anchors, h.Records...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = predict.Predict(m, mpf, anchors, nil, engine.Config{})
	}
}

// BenchmarkBatchPredict times one gps.Run on the world cmd/gpsbench's
// batch-predict workload builds: 12 /16s at 3% host density, every
// service observed, trained on a 10% seed split. It reports the last
// run's priors-scan and predictions-list phases beside the allocations.
func BenchmarkBatchPredict(b *testing.B) {
	u := netmodel.Generate(gps.DemoUniverseParams(1, 12, 0.03))
	seedSet, _ := experiments.SplitEval(dataset.SnapshotLZR(u, 1.0, 1^0x11), 0.1, true, 1)
	var res *gps.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = gps.Run(u, seedSet, gps.Config{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Timings.PriorsScan.Microseconds())/1e3, "priors-scan-ms")
	b.ReportMetric(float64(res.Timings.Predictions.Microseconds())/1e3, "predictions-ms")
}
