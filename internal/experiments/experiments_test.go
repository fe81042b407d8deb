package experiments

import (
	"slices"
	"sync"
	"testing"

	"gps/internal/features"
)

// sharedSetup builds the small-scale setup once per test binary; the
// experiments are read-only against it.
var (
	setupOnce sync.Once
	setupVal  *Setup
)

func testSetup(t *testing.T) *Setup {
	t.Helper()
	setupOnce.Do(func() { setupVal = NewSetup(SmallScale(99)) })
	return setupVal
}

func TestFigure2Panels(t *testing.T) {
	s := testSetup(t)
	for _, v := range []Fig2Variant{
		{Censys: true}, {Censys: false},
		{Censys: true, Normalized: true}, {Censys: false, Normalized: true},
	} {
		v := v
		t.Run(v.PanelName(), func(t *testing.T) {
			r := Figure2(s, v)
			t.Log(r.Figure().Render())
			if r.FinalGPS < 0.3 {
				t.Errorf("GPS final coverage %.2f too low", r.FinalGPS)
			}
			if r.SavingsAtFinal < 1 {
				t.Errorf("GPS should beat optimal port-order probing; savings %.2fx", r.SavingsAtFinal)
			}
			// The oracle must lower-bound everyone's bandwidth.
			ob, okO := r.Oracle.BandwidthFor(r.FinalGPS * 0.9)
			gb, okG := r.GPS.BandwidthFor(r.FinalGPS * 0.9)
			if okO && okG && ob > gb {
				t.Errorf("oracle used more bandwidth (%d) than GPS (%d)", ob, gb)
			}
		})
	}
}

func TestFigure3Precision(t *testing.T) {
	s := testSetup(t)
	r := Figure3(s)
	t.Log(r.Figure().Render())
	if r.PrecisionRatioMid < 5 {
		t.Errorf("GPS precision advantage %.1fx; want order(s) of magnitude", r.PrecisionRatioMid)
	}
}

func TestFigure4XGBoost(t *testing.T) {
	s := testSetup(t)
	r := Figure4(s)
	for _, tb := range r.Tables(s.Universe.SpaceSize()) {
		t.Log(tb.Render())
	}
	t.Log(r.FigureC().Render())
	if r.AvgPriorSavings < 1 {
		t.Errorf("GPS prior-bandwidth savings %.2fx; paper reports 5.7x average", r.AvgPriorSavings)
	}
	if len(r.Ports) == 0 {
		t.Fatal("no per-port results")
	}
}

func TestFigure5StepSize(t *testing.T) {
	s := testSetup(t)
	r := Figure5(s, []uint8{0, 12, 16, 20})
	t.Log(r.Figure().Render())
	// Smaller steps (longer prefixes) must not use more bandwidth than
	// /0 whole-space scanning at the priors stage; and /0 should reach
	// at least as much normalized coverage as /20.
	cov0 := r.Curves[0].Final().FracNorm
	cov20 := r.Curves[len(r.Curves)-1].Final().FracNorm
	if cov0+1e-9 < cov20 {
		t.Errorf("/0 step coverage %.3f below /20 step %.3f; larger steps should recall more", cov0, cov20)
	}
	bw0 := r.Curves[0].Final().Probes
	bw20 := r.Curves[len(r.Curves)-1].Final().Probes
	if bw20 > bw0 {
		t.Errorf("/20 step used more bandwidth (%d) than /0 (%d)", bw20, bw0)
	}
}

func TestFigure6SeedSize(t *testing.T) {
	s := testSetup(t)
	r := Figure6(s, nil)
	for _, f := range r.Figures() {
		t.Log(f.Render())
	}
	n := len(r.SeedFractions)
	if r.FinalNorm[n-1] < r.FinalNorm[0] {
		t.Errorf("largest seed %.3f norm coverage below smallest %.3f; larger seeds should find more normalized services",
			r.FinalNorm[n-1], r.FinalNorm[0])
	}
}

func TestTables(t *testing.T) {
	s := testSetup(t)
	t1 := Table1(s)
	t.Log(t1.Render())
	if len(t1.Rows) != 25 {
		t.Errorf("Table 1 has %d rows; want 25 features", len(t1.Rows))
	}
	t2 := Table2(s)
	t.Log(t2.Table(s.Universe.SpaceSize()).Render())
	if t2.SingleCore < t2.Parallel {
		t.Logf("warning: single-core compute (%v) faster than parallel (%v) at this scale", t2.SingleCore, t2.Parallel)
	}
	t3 := Table3(s)
	t.Log(t3.Table(5).Render())
	if len(t3.Rows) == 0 || t3.UniqueRules == 0 {
		t.Error("Table 3 found no predictive tuples")
	}
	t4 := Table4(s)
	t.Log(t4.Render())
	if len(t4.Rows) == 0 {
		t.Error("Table 4 empty")
	}
}

// TestTable4TiesInKeyOrder: rows with equal counts come out in feature-key
// order on every call, whatever order the counts map yields them in.
func TestTable4TiesInKeyOrder(t *testing.T) {
	counts := map[features.Key]int{features.KeyASN: 10, features.KeySubnet17: 6, features.KeySubnet23: 6, features.KeySubnet20: 6}
	var want [][]string
	for _, k := range []features.Key{features.KeyASN, features.KeySubnet17, features.KeySubnet20, features.KeySubnet23} {
		want = append(want, []string{k.String(), fmtPct(float64(counts[k]) / 28)})
	}
	for rep := 0; rep < 20; rep++ {
		if got := table4(counts, 28).Rows; !slices.EqualFunc(got, want, slices.Equal[[]string]) {
			t.Fatalf("repetition %d: rows %v, want %v", rep, got, want)
		}
	}
}

func TestBaselineExperiments(t *testing.T) {
	s := testSetup(t)
	tgaRes := TGAExperiment(s)
	t.Log(tgaRes.Table().Render())
	if tgaRes.TGA.FracAll > 0.6 {
		t.Errorf("TGA found %.2f of services; paper says TGAs perform poorly (~19%%)", tgaRes.TGA.FracAll)
	}
	rec := RecommenderExperiment(s)
	t.Log(rec.Table().Render())
	if rec.Rec.FracNorm > 0.3 {
		t.Errorf("recommender normalized coverage %.2f; paper reports ~1.5%%", rec.Rec.FracNorm)
	}
}

func TestMiscExperiments(t *testing.T) {
	s := testSetup(t)
	ab := AppendixB(s)
	t.Log(ab.Table().Render())
	if ab.Recall < 0.999 {
		t.Errorf("pseudo filter recall %.3f; paper reports 100%%", ab.Recall)
	}
	if ab.Precision < 0.9 {
		t.Errorf("pseudo filter precision %.3f; paper reports 99%%", ab.Precision)
	}

	s7 := Section7Limits(s)
	t.Log(s7.Table().Render())
	if s7.NormCoverage < 0.5 {
		t.Errorf("ideal-conditions normalized coverage %.2f; paper reports ~80%%", s7.NormCoverage)
	}

	ch := ChurnStudy(s)
	t.Log(ch.Table().Render())
	if ch.ServicesLost <= 0 || ch.ServicesLost > 0.3 {
		t.Errorf("service churn %.3f outside plausible range", ch.ServicesLost)
	}
	if ch.NormalizedLost < ch.ServicesLost {
		t.Errorf("normalized churn %.3f below overall churn %.3f; uncommon ports should churn faster",
			ch.NormalizedLost, ch.ServicesLost)
	}

	s4 := Section4Properties(s)
	t.Log(s4.Table().Render())
	if s4.CoOccurrence25 < 0.5 {
		t.Errorf("only %.2f of ports show 25%% second-port co-occurrence", s4.CoOccurrence25)
	}
	if s4.SameSubnetShare < s4.UncommonSameSubnet {
		t.Errorf("subnet clustering should weaken on uncommon ports (%.2f overall vs %.2f uncommon)",
			s4.SameSubnetShare, s4.UncommonSameSubnet)
	}
}

// TestContinuousTracksChurn is the acceptance check of the continuous
// subsystem: at least 5 churn epochs, with every epoch's coverage of the
// then-current universe within 20% of epoch 1's — the inventory tracks
// churn instead of decaying the way a batch snapshot does.
func TestContinuousTracksChurn(t *testing.T) {
	s := testSetup(t)
	r := Continuous(s, 6)
	t.Log(r.Table().Render())
	if len(r.Points) != 6 {
		t.Fatalf("got %d epochs; want 6", len(r.Points))
	}
	first := r.Points[0].Coverage
	if first < 0.3 {
		t.Fatalf("epoch-1 coverage %.2f too low to mean anything", first)
	}
	for _, p := range r.Points {
		if diff := p.Coverage - first; diff < -0.2*first || diff > 0.2*first {
			t.Errorf("epoch %d coverage %.3f drifted more than 20%% from epoch-1 %.3f",
				p.Epoch, p.Coverage, first)
		}
		if p.Probes == 0 || p.Known == 0 {
			t.Errorf("epoch %d: empty epoch (probes=%d known=%d)", p.Epoch, p.Probes, p.Known)
		}
	}
	// The inventory must actually turn over: the churning universe keeps
	// shrinking, so the known set at the end must be smaller than at the
	// start while coverage holds.
	if last := r.Points[len(r.Points)-1]; last.Known >= r.Points[0].Known {
		t.Errorf("known set grew from %d to %d against a shrinking universe",
			r.Points[0].Known, last.Known)
	}
}

func TestShardsExperiment(t *testing.T) {
	s := testSetup(t)
	r := ShardsExperiment(s, []int{1, 2, 4})
	t.Log(r.Table().Render())
	if len(r.Points) != 3 {
		t.Fatalf("got %d points; want 3", len(r.Points))
	}
	base := r.Points[0]
	if base.Coverage <= 0 || base.Found == 0 {
		t.Fatalf("1-shard baseline found nothing (coverage %.3f)", base.Coverage)
	}
	for _, p := range r.Points {
		// The acceptance contract: the N-shard merged inventory is
		// byte-identical to the 1-shard run under a fixed seed, so
		// coverage is exactly flat across shard counts.
		if !p.Identical {
			t.Errorf("%d shards: merged inventory not byte-identical to the 1-shard run", p.Shards)
		}
		if p.Coverage != base.Coverage || p.Found != base.Found {
			t.Errorf("%d shards: coverage %.4f found %d; 1-shard run had %.4f/%d",
				p.Shards, p.Coverage, p.Found, base.Coverage, base.Found)
		}
		if p.TotalProbes != base.TotalProbes {
			t.Errorf("%d shards: total probes %d; want %d", p.Shards, p.TotalProbes, base.TotalProbes)
		}
		// Per-shard work must scale down: the bottleneck shard's
		// bandwidth stays within 50% of the ideal 1/N share.
		ideal := base.TotalProbes / uint64(p.Shards)
		if p.MaxShardProbes > ideal+ideal/2 {
			t.Errorf("%d shards: bottleneck shard spent %d probes; ideal share is %d",
				p.Shards, p.MaxShardProbes, ideal)
		}
	}
}

// TestShardsExperimentBaselineIsOneShard: when the sweep does not start
// at one shard, the determinism check must still compare against a real
// 1-shard run rather than the first sweep entry.
func TestShardsExperimentBaselineIsOneShard(t *testing.T) {
	s := testSetup(t)
	r := ShardsExperiment(s, []int{2})
	if len(r.Points) != 1 || r.Points[0].Shards != 2 {
		t.Fatalf("unexpected points %+v", r.Points)
	}
	if !r.Points[0].Identical {
		t.Error("2-shard inventory not byte-identical to the implicit 1-shard baseline")
	}
}
