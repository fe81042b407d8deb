package gps

import (
	"slices"
	"testing"

	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
)

// testFixture builds one small universe + split shared by the root tests.
type fixture struct {
	u       *netmodel.Universe
	seedSet *Dataset
	testSet *Dataset
}

func newFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	u := GenerateUniverse(SmallUniverseParams(seed))
	full := SnapshotAllPorts(u, 0.4, seed+1)
	seedSet, testSet := full.Split(0.02, seed+2)
	eligible := seedSet.EligiblePorts(2)
	return &fixture{
		u:       u,
		seedSet: seedSet.FilterPorts(eligible),
		testSet: testSet.FilterPorts(eligible),
	}
}

func TestRunEmptySeedErrors(t *testing.T) {
	f := newFixture(t, 100)
	if _, err := Run(f.u, &Dataset{}, Config{}); err == nil {
		t.Error("empty seed accepted")
	}
}

// TestRunRefusesSeedSetNotARun: the model's host groups are slices of
// the seed set, so Run refuses a hand-built set that is not a strict
// (IP, port) run (two records swapped, or one key twice) as it refuses
// an empty one, instead of training on split or doubled hosts.
func TestRunRefusesSeedSetNotARun(t *testing.T) {
	f := newFixture(t, 100)
	recs := f.seedSet.Records
	swapped := slices.Clone(recs)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	repeated := slices.Insert(slices.Clone(recs), 1, recs[0])
	for name, records := range map[string][]dataset.Record{"empty": nil, "swapped": swapped, "repeated": repeated} {
		if _, err := Run(f.u, &Dataset{Records: records}, Config{}); err == nil {
			t.Errorf("%s seed set accepted", name)
		}
	}
}

func TestBudgetEnforced(t *testing.T) {
	f := newFixture(t, 100)
	budget := f.u.SpaceSize() // one full-scan unit
	res, err := Run(f.u, f.seedSet, Config{StepBits: 16, Budget: budget, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The budget is checked between scan steps, so one step of overshoot
	// (a /16 = 65536 probes) is allowed, not more.
	if res.TotalScanProbes() > budget+65536 {
		t.Errorf("spent %d probes with budget %d", res.TotalScanProbes(), budget)
	}
	unlimited, err := Run(f.u, f.seedSet, Config{StepBits: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Discoveries) >= len(unlimited.Discoveries) {
		t.Error("budgeted run found as much as unlimited; budget had no effect")
	}
}

func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	f := newFixture(t, 100)
	a, err := Run(f.u, f.seedSet, Config{StepBits: 16, Seed: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(f.u, f.seedSet, Config{StepBits: 16, Seed: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Discoveries) != len(b.Discoveries) {
		t.Fatalf("discovery counts differ: %d vs %d", len(a.Discoveries), len(b.Discoveries))
	}
	for i := range a.Discoveries {
		if a.Discoveries[i].Key != b.Discoveries[i].Key {
			t.Fatalf("discovery %d differs between worker counts", i)
		}
	}
}

func TestStepZeroScansWholeSpace(t *testing.T) {
	f := newFixture(t, 100)
	res, err := Run(f.u, f.seedSet, Config{StepZero: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every priors target must be a /0.
	for _, tgt := range res.PriorsList.Targets {
		if tgt.Subnet.Bits != 0 {
			t.Fatalf("StepZero produced /%d target", tgt.Subnet.Bits)
		}
	}
	// A /0 scan costs the announced space, not 2^32.
	perPort := res.PriorsProbes / uint64(len(res.PriorsList.Targets))
	if perPort > f.u.SpaceSize() {
		t.Errorf("per-target cost %d exceeds announced space %d", perPort, f.u.SpaceSize())
	}
}

func TestDiscoveriesOrderedByProbes(t *testing.T) {
	f := newFixture(t, 100)
	res, err := Run(f.u, f.seedSet, Config{StepBits: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	seenPredict := false
	var last uint64
	for _, d := range res.Discoveries {
		if d.Probes < last {
			t.Fatal("discovery log not monotone in probes")
		}
		last = d.Probes
		if d.Phase == pipeline.PhasePredict {
			seenPredict = true
		} else if seenPredict {
			t.Fatal("priors discovery after predict phase began")
		}
	}
	if !seenPredict {
		t.Error("no predict-phase discoveries")
	}
	if res.PriorsProbes == 0 || res.PredictProbes == 0 {
		t.Error("phase probe accounting empty")
	}
}

func TestPredictionScanHitsAreReal(t *testing.T) {
	f := newFixture(t, 100)
	res, err := Run(f.u, f.seedSet, Config{StepBits: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Discoveries {
		if !f.u.Responsive(d.Key.IP, d.Key.Port) {
			t.Fatalf("discovered service %v is not actually responsive", d.Key)
		}
		if !res.Found[d.Key] {
			t.Fatalf("discovery %v missing from Found set", d.Key)
		}
	}
	if len(res.Found) != len(res.Discoveries) {
		t.Errorf("Found has %d keys; discoveries %d", len(res.Found), len(res.Discoveries))
	}
}

func TestPredictionsSortedByProbability(t *testing.T) {
	f := newFixture(t, 100)
	res, err := Run(f.u, f.seedSet, Config{StepBits: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Predictions); i++ {
		if res.Predictions[i-1].P < res.Predictions[i].P {
			t.Fatal("predictions not in descending probability")
		}
	}
}

func TestEvaluateFacade(t *testing.T) {
	f := newFixture(t, 100)
	res, err := Run(f.u, f.seedSet, Config{StepBits: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	point, curve := Evaluate(res, f.testSet, f.u.SpaceSize())
	if point.FracAll <= 0 || point.FracAll > 1 {
		t.Errorf("FracAll = %f", point.FracAll)
	}
	if len(curve) == 0 {
		t.Error("empty curve")
	}
	if curve.Final().Probes != res.TotalScanProbes() {
		t.Errorf("curve final probes %d; want %d", curve.Final().Probes, res.TotalScanProbes())
	}
}

func TestCollectSeed(t *testing.T) {
	f := newFixture(t, 100)
	seed := CollectSeed(f.u, 0.01, 9)
	want := uint64(float64(f.u.SpaceSize()) * 0.01 * netmodel.NumPorts)
	if seed.CollectionProbes != want {
		t.Errorf("seed collection probes = %d; want %d", seed.CollectionProbes, want)
	}
	if seed.NumServices() == 0 {
		t.Error("empty seed collected")
	}
	res, err := Run(f.u, seed, Config{StepBits: 16, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.SeedProbes != seed.CollectionProbes {
		t.Error("seed probes not carried into result")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.EffectiveStep() != 16 {
		t.Errorf("default step = %d; want 16", c.EffectiveStep())
	}
	c.StepBits = 20
	if c.EffectiveStep() != 20 {
		t.Error("explicit step ignored")
	}
	c.StepZero = true
	if c.EffectiveStep() != 0 {
		t.Error("StepZero ignored")
	}
	if pipeline.PhasePriors.String() != "priors" || pipeline.PhasePredict.String() != "predict" {
		t.Error("phase names wrong")
	}
}

func TestMiddleboxesFiltered(t *testing.T) {
	f := newFixture(t, 100)
	res, err := Run(f.u, f.seedSet, Config{StepBits: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Middleboxes == 0 {
		t.Error("no middleboxes encountered; the universe plants them")
	}
	for _, a := range res.Anchors {
		h, ok := f.u.HostAt(a.IP)
		if !ok {
			t.Fatal("anchor on missing host")
		}
		if h.Middlebox {
			t.Fatal("middlebox used as anchor")
		}
	}
}

// TestDemoUniverseParams: gps and gpsd derive their universe from these
// three knobs alone, so each must land in the parameters.
func TestDemoUniverseParams(t *testing.T) {
	p := DemoUniverseParams(21, 8, 0.05)
	if p.Seed != 21 || p.NumPrefix16 != 8 || p.HostDensity != 0.05 || p.NumASes != 4 {
		t.Errorf("DemoUniverseParams(21, 8, 0.05) = %+v", p)
	}
	if _, err := NewUniverse(p); err != nil {
		t.Errorf("demo parameters rejected: %v", err)
	}
}
