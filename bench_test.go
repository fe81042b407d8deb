package gps_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus ablation benches for the pipeline's design
// choices and micro-benchmarks for the hot substrates.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each experiment bench reports its headline result as custom metrics
// (coverage, savings-x, precision and so on) so a bench run doubles as a
// results table; the notes attached to each experiment's rendered table
// record the paper's corresponding values.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"gps/internal/dataset"
	"gps/internal/engine"
	"gps/internal/experiments"
	"gps/internal/metrics"

	"gps"
	"gps/internal/netmodel"
	"gps/internal/predict"
	"gps/internal/priors"
	"gps/internal/probmodel"
	"gps/internal/scanner"
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

// --- Figure 2: service discovery vs bandwidth -----------------------------

func benchFigure2(b *testing.B, v experiments.Fig2Variant) {
	s := setupBench(b)
	var r *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure2(s, v)
	}
	b.ReportMetric(r.FinalGPS, "coverage")
	b.ReportMetric(r.SavingsAtFinal, "savings-x")
}

func BenchmarkFigure2a(b *testing.B) { benchFigure2(b, experiments.Fig2Variant{Censys: true}) }
func BenchmarkFigure2b(b *testing.B) { benchFigure2(b, experiments.Fig2Variant{}) }
func BenchmarkFigure2c(b *testing.B) {
	benchFigure2(b, experiments.Fig2Variant{Censys: true, Normalized: true})
}
func BenchmarkFigure2d(b *testing.B) {
	benchFigure2(b, experiments.Fig2Variant{Normalized: true})
}

// --- Figure 3: precision ---------------------------------------------------

func BenchmarkFigure3(b *testing.B) {
	s := setupBench(b)
	var r *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure3(s)
	}
	b.ReportMetric(r.PrecisionRatioMid, "precision-ratio-x")
}

// --- Figure 4: GPS vs the XGBoost scanner ----------------------------------

func BenchmarkFigure4(b *testing.B) {
	s := setupBench(b)
	var r *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure4(s)
	}
	b.ReportMetric(r.AvgPriorSavings, "avg-prior-savings-x")
	b.ReportMetric(r.BestPriorSavings, "best-prior-savings-x")
}

// --- Figure 5 / 6: parameter sweeps ----------------------------------------

func BenchmarkFigure5(b *testing.B) {
	s := setupBench(b)
	var r *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure5(s, []uint8{0, 12, 16, 20})
	}
	b.ReportMetric(r.Curves[0].Final().FracNorm, "norm-coverage-step0")
	b.ReportMetric(r.Curves[len(r.Curves)-1].Final().FracNorm, "norm-coverage-step20")
}

func BenchmarkFigure6(b *testing.B) {
	s := setupBench(b)
	var r *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure6(s, nil)
	}
	b.ReportMetric(r.FinalNorm[0], "norm-coverage-smallest-seed")
	b.ReportMetric(r.FinalNorm[len(r.FinalNorm)-1], "norm-coverage-largest-seed")
}

// --- Tables -----------------------------------------------------------------

func BenchmarkTable1FeatureDimensionality(b *testing.B) {
	s := setupBench(b)
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Table1(s)
	}
	b.ReportMetric(float64(len(t.Rows)), "features")
}

// BenchmarkTable2SingleCore and BenchmarkTable2Parallel time the pure
// prediction computation (model + priors list + MPF + predictions list) at
// the two parallelism levels Table 2 contrasts.
func benchTable2(b *testing.B, workers int) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 31)
	hosts := seedSet.ByHost()
	eng := engine.Config{Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := probmodel.Build(probmodel.Config{Engine: eng}, hosts)
		pl := priors.Build(m, hosts, 16, eng)
		mpf := predict.BuildMPF(m, hosts, eng)
		_ = pl
		_ = mpf
	}
}

func BenchmarkTable2SingleCore(b *testing.B) { benchTable2(b, 1) }
func BenchmarkTable2Parallel(b *testing.B)   { benchTable2(b, 0) }

func BenchmarkTable3(b *testing.B) {
	s := setupBench(b)
	var r *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table3(s)
	}
	b.ReportMetric(float64(r.UniqueRules), "mpf-rules")
	b.ReportMetric(float64(r.UniqueKinds), "tuple-kinds")
}

func BenchmarkTable4(b *testing.B) {
	s := setupBench(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Table4(s)
	}
}

// --- Baselines and appendix experiments -------------------------------------

func BenchmarkTGABaseline(b *testing.B) {
	s := setupBench(b)
	var r *experiments.TGAResult
	for i := 0; i < b.N; i++ {
		r = experiments.TGAExperiment(s)
	}
	b.ReportMetric(r.TGA.FracAll, "coverage")
}

func BenchmarkRecommenderBaseline(b *testing.B) {
	s := setupBench(b)
	var r *experiments.RecommenderResult
	for i := 0; i < b.N; i++ {
		r = experiments.RecommenderExperiment(s)
	}
	b.ReportMetric(r.Rec.FracAll, "coverage")
	b.ReportMetric(r.Rec.FracNorm, "norm-coverage")
}

func BenchmarkPseudoServiceFilter(b *testing.B) {
	s := setupBench(b)
	var r *experiments.AppendixBResult
	for i := 0; i < b.N; i++ {
		r = experiments.AppendixB(s)
	}
	b.ReportMetric(r.Recall, "recall")
	b.ReportMetric(r.Precision, "precision")
}

func BenchmarkSection7(b *testing.B) {
	s := setupBench(b)
	var r *experiments.Section7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Section7Limits(s)
	}
	b.ReportMetric(r.NormCoverage, "ideal-norm-coverage")
}

// BenchmarkContinuousEpoch times one epoch of the continuous scanning
// subsystem at small scale: re-verify the inventory, re-train the model
// on it, and run budgeted discovery against a freshly churned universe.
func BenchmarkContinuousEpoch(b *testing.B) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 91)
	world := netmodel.Churn(s.Universe, netmodel.DefaultChurn(91))
	cfg := gps.ContinuousConfig{Budget: 20 * s.Universe.SpaceSize()}
	var stats gps.EpochStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := gps.NewContinuous(seedSet, cfg)
		var err error
		if stats, err = r.Epoch(world); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.KnownSize), "known-services")
	b.ReportMetric(stats.Freshness.AliveFrac(), "alive-frac")
}

// BenchmarkTelemetryOverhead runs the same continuous epoch with the
// telemetry registry recording and with it disabled, so the two
// sub-benchmark times bound the cost of instrumentation on the hottest
// composite path. The registry's hot paths are single atomics, so the
// delta should be noise (<5% is the CI expectation).
func BenchmarkTelemetryOverhead(b *testing.B) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 91)
	world := netmodel.Churn(s.Universe, netmodel.DefaultChurn(91))
	cfg := gps.ContinuousConfig{Budget: 20 * s.Universe.SpaceSize()}
	epoch := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gps.NewContinuous(seedSet, cfg).Epoch(world); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("instrumented", epoch)
	b.Run("disabled", func(b *testing.B) {
		gps.Telemetry().SetEnabled(false)
		defer gps.Telemetry().SetEnabled(true)
		epoch(b)
	})
}

// BenchmarkTraceOverhead is the tracing twin of the telemetry bench: a
// full continuous epoch (which records an epoch root plus four phase
// spans) with the flight recorder on versus off. The disabled path must
// reduce every instrumentation site to one atomic load and a nil
// return, so the two sub-benches are expected to agree within noise
// (<1% like telemetry).
func BenchmarkTraceOverhead(b *testing.B) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 91)
	world := netmodel.Churn(s.Universe, netmodel.DefaultChurn(91))
	cfg := gps.ContinuousConfig{Budget: 20 * s.Universe.SpaceSize()}
	epoch := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gps.NewContinuous(seedSet, cfg).Epoch(world); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("instrumented", epoch)
	b.Run("disabled", func(b *testing.B) {
		gps.Tracing().SetEnabled(false)
		defer gps.Tracing().SetEnabled(true)
		epoch(b)
	})
}

// --- Shard scale-out ---------------------------------------------------------

// BenchmarkShardPipeline measures ONE shard's share of a batch run at
// increasing shard counts: the per-shard work (dominated by the scan
// bandwidth it owns) must scale down roughly linearly with the count,
// which is the horizontal analogue of Table 2's warehouse speedup.
func BenchmarkShardPipeline(b *testing.B) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 55)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			cfg := gps.Config{Seed: 55, ShardIndex: 0, ShardCount: n}
			var res *gps.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = gps.Run(s.Universe, seedSet, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.TotalScanProbes()), "shard-probes")
			b.ReportMetric(float64(len(res.Found)), "shard-found")
		})
	}
}

// BenchmarkShardMerge measures the cross-shard fold alone: the merge
// visits every discovered service once, so its cost tracks the total
// inventory size and stays roughly flat (sublinear) as the shard count
// grows.
func BenchmarkShardMerge(b *testing.B) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 55)
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			merged, err := gps.RunSharded(s.Universe, seedSet, gps.Config{Seed: 55}, n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var m *gps.ShardMerged
			for i := 0; i < b.N; i++ {
				m = gps.MergeShardResults(merged.Results)
			}
			b.ReportMetric(float64(len(m.Found)), "merged-services")
		})
	}
}

// BenchmarkShardEpoch times one sharded continuous epoch: N runners
// re-verifying and discovering concurrently, each on its own partition.
func BenchmarkShardEpoch(b *testing.B) {
	s := setupBench(b)
	seedSet, _ := experiments.SplitEval(s.LZR, s.Scale.SeedMid, true, 91)
	world := netmodel.Churn(s.Universe, netmodel.DefaultChurn(91))
	cfg := gps.ShardConfig{
		Shards:     4,
		Continuous: gps.ContinuousConfig{Budget: 20 * s.Universe.SpaceSize()},
	}
	var stats gps.EpochStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := gps.NewShardCoordinator(seedSet, cfg)
		var err error
		if stats, err = c.Epoch(world); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.KnownSize), "known-services")
}

// --- Inventory serving --------------------------------------------------------

// benchInventory builds a merged-inventory view of the LZR snapshot: the
// shape the serving layer indexes every epoch.
func benchInventory(s *experiments.Setup) map[gps.ServiceKey]*gps.KnownService {
	inv := make(map[gps.ServiceKey]*gps.KnownService, s.LZR.NumServices())
	for _, r := range s.LZR.Records {
		inv[r.Key()] = &gps.KnownService{Rec: r, FirstSeen: 1, LastSeen: 3}
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
	var snap *gps.InventorySnapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap = gps.NewInventorySnapshot(3, inv)
	}
	b.ReportMetric(float64(snap.NumServices()), "services")
}

// BenchmarkServeQuery measures the read path under fire: query latency
// through the full HTTP handler (routing, snapshot load, in-place JSON
// render) while a committer goroutine keeps swapping fresh
// snapshots in — the serving claim is precisely that commits never stall
// readers, so the tail latencies are reported alongside the mean.
func BenchmarkServeQuery(b *testing.B) {
	s := setupBench(b)
	inv := benchInventory(s)
	var pub gps.InventoryPublisher
	pub.Publish(gps.NewInventorySnapshot(1, inv))
	h := gps.NewInventoryServer(&pub).Handler()

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
				pub.Publish(gps.NewInventorySnapshot(e, inv))
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

func BenchmarkChurn(b *testing.B) {
	s := setupBench(b)
	var r *experiments.ChurnResult
	for i := 0; i < b.N; i++ {
		r = experiments.ChurnStudy(s)
	}
	b.ReportMetric(r.ServicesLost, "services-lost")
	b.ReportMetric(r.NormalizedLost, "norm-services-lost")
}

// --- Ablations ---------------------------------------------------------------

// benchPipelineCoverage runs GPS with cfg against the all-port split and
// reports coverage and precision.
func benchPipelineCoverage(b *testing.B, mutate func(*gps.Config), seedSet, testSet *gps.Dataset) {
	s := setupBench(b)
	cfg := gps.Config{StepBits: 16, Seed: 77}
	mutate(&cfg)
	var point metrics.Point
	for i := 0; i < b.N; i++ {
		res, err := gps.Run(s.Universe, seedSet, cfg)
		if err != nil {
			b.Fatal(err)
		}
		point, _ = gps.Evaluate(res, testSet, s.Universe.SpaceSize())
	}
	b.ReportMetric(point.FracAll, "coverage")
	b.ReportMetric(point.FracNorm, "norm-coverage")
	b.ReportMetric(point.Precision*1000, "hits-per-kprobe")
}

func ablationSplit(b *testing.B) (*gps.Dataset, *gps.Dataset) {
	s := setupBench(b)
	return experiments.SplitEval(s.LZR, s.Scale.SeedSmall, true, 71)
}

// BenchmarkAblationProbabilityFloor contrasts the paper's 1e-5 floor with
// no floor at all: without it, GPS wastes probes on patterns no better
// than random.
func BenchmarkAblationProbabilityFloor(b *testing.B) {
	seedSet, testSet := ablationSplit(b)
	b.Run("floor=1e-5", func(b *testing.B) {
		benchPipelineCoverage(b, func(c *gps.Config) {}, seedSet, testSet)
	})
	b.Run("floor=off", func(b *testing.B) {
		benchPipelineCoverage(b, func(c *gps.Config) {
			c.Floor = -1
			c.MinSupport = -1 // admit singleton patterns too
		}, seedSet, testSet)
	})
}

// BenchmarkAblationFeatureFamilies contrasts all four conditional
// probability families (Expressions 4-7) with the transport-only model.
func BenchmarkAblationFeatureFamilies(b *testing.B) {
	seedSet, testSet := ablationSplit(b)
	b.Run("families=all", func(b *testing.B) {
		benchPipelineCoverage(b, func(c *gps.Config) {}, seedSet, testSet)
	})
	b.Run("families=transport-only", func(b *testing.B) {
		benchPipelineCoverage(b, func(c *gps.Config) { c.Families = probmodel.TransportOnly }, seedSet, testSet)
	})
}

// BenchmarkAblationPriorsOrdering contrasts the §5.3 maximal-coverage
// ordering of the priors scan with a random ordering, under a tight
// budget where ordering matters.
func BenchmarkAblationPriorsOrdering(b *testing.B) {
	seedSet, testSet := ablationSplit(b)
	s := setupBench(b)
	budget := 3 * s.Universe.SpaceSize()
	b.Run("order=coverage", func(b *testing.B) {
		benchPipelineCoverage(b, func(c *gps.Config) { c.Budget = budget }, seedSet, testSet)
	})
	b.Run("order=random", func(b *testing.B) {
		benchPipelineCoverage(b, func(c *gps.Config) {
			c.Budget = budget
			c.RandomPriorsOrder = true
		}, seedSet, testSet)
	})
}

// BenchmarkAblationPseudoFilter contrasts seed sets with and without the
// Appendix B pseudo-service filter.
func BenchmarkAblationPseudoFilter(b *testing.B) {
	s := setupBench(b)
	mkSplit := func(filter bool) (*gps.Dataset, *gps.Dataset) {
		full := dataset.SnapshotLZROpts(s.Universe, s.Scale.LZRFraction, 73, filter)
		seedSet, _ := full.Split(s.Scale.SeedSmall, 74)
		eligible := seedSet.EligiblePorts(2)
		// Evaluate against the *filtered* truth either way: pseudo
		// services are never legitimate discoveries.
		cleanFull := dataset.SnapshotLZR(s.Universe, s.Scale.LZRFraction, 73)
		_, cleanTest := cleanFull.Split(s.Scale.SeedSmall, 74)
		return seedSet.FilterPorts(eligible), cleanTest.FilterPorts(eligible)
	}
	b.Run("filter=on", func(b *testing.B) {
		seedSet, testSet := mkSplit(true)
		benchPipelineCoverage(b, func(c *gps.Config) {}, seedSet, testSet)
	})
	b.Run("filter=off", func(b *testing.B) {
		seedSet, testSet := mkSplit(false)
		benchPipelineCoverage(b, func(c *gps.Config) {}, seedSet, testSet)
	})
}

// --- Micro-benchmarks on the substrates --------------------------------------

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
	c := probmodel.Cond{Port: 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Prob(c, 443)
	}
}

func BenchmarkCyclicIterator(b *testing.B) {
	it, err := scanner.NewCyclicIterator(1<<20, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := it.Next(); !ok {
			it.Reset()
		}
	}
}

func BenchmarkScanPrefixFast(b *testing.B) {
	s := setupBench(b)
	sc := scanner.New(s.Universe)
	pfx := s.Universe.Prefixes()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.ScanPrefixFast(pfx, 80, int64(i))
	}
}

func BenchmarkUniverseGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = netmodel.Generate(netmodel.TestParams(int64(i)))
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

// BenchmarkPartitionedWorldBuild measures what a shard worker pays to
// hold its world: full-universe build vs a 1-of-4 partition build, with
// retained heap reported per variant (the acceptance criterion is
// partitioned heap ≲ 1/N + ε of full). heap-bytes is measured once per
// run on a GC-settled heap; build time is the benchmark's own metric.
func BenchmarkPartitionedWorldBuild(b *testing.B) {
	const shards = 4
	params := func(part *gps.UniversePartition) gps.UniverseParams {
		p := gps.DemoUniverseParams(7, 16, 0.03)
		p.Partition = part
		return p
	}
	heapAfter := func(build func() *gps.Universe) (u *gps.Universe, retained uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		u = build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return u, after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc)
	}
	for _, bench := range []struct {
		name string
		part *gps.UniversePartition
	}{
		{"full", nil},
		{"partitioned-1of4", &gps.UniversePartition{Count: shards, Owned: []int{0}}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			u, retained := heapAfter(func() *gps.Universe {
				v, err := gps.NewUniverse(params(bench.part))
				if err != nil {
					b.Fatal(err)
				}
				return v
			})
			runtime.KeepAlive(u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := gps.NewUniverse(params(bench.part))
				if err != nil {
					b.Fatal(err)
				}
				runtime.KeepAlive(v)
			}
			// After ResetTimer, which deletes user metrics.
			b.ReportMetric(float64(retained), "heap-bytes")
			b.ReportMetric(float64(u.NumHosts()), "hosts")
		})
	}
}
