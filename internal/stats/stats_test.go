package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gps/internal/netmodel"
)

func TestFitZipfRecoversExponent(t *testing.T) {
	// Synthesize an exact power law f(r) = 1e6 * r^-1.2.
	counts := make([]int, 500)
	for r := 1; r <= len(counts); r++ {
		counts[r-1] = int(1e6 * math.Pow(float64(r), -1.2))
	}
	fit := FitZipf(counts)
	if math.Abs(fit.Alpha-1.2) > 0.05 {
		t.Errorf("alpha = %.3f; want ~1.2", fit.Alpha)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %.3f on an exact power law", fit.R2)
	}
}

func TestFitZipfDegenerate(t *testing.T) {
	if f := FitZipf([]int{5}); f.Ranks != 1 || f.Alpha != 0 {
		t.Errorf("degenerate fit = %+v", f)
	}
	if f := FitZipf(nil); f.Ranks != 0 {
		t.Errorf("empty fit = %+v", f)
	}
	// Uniform counts: alpha ~ 0.
	if f := FitZipf([]int{10, 10, 10, 10, 10}); math.Abs(f.Alpha) > 1e-9 {
		t.Errorf("uniform alpha = %f; want 0", f.Alpha)
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); math.Abs(g) > 1e-9 {
		t.Errorf("equal gini = %f; want 0", g)
	}
	// Total concentration in one of many values approaches 1 - 1/n.
	vals := make([]float64, 100)
	vals[0] = 1000
	if g := Gini(vals); g < 0.95 {
		t.Errorf("concentrated gini = %f; want ~0.99", g)
	}
	if Gini(nil) != 0 {
		t.Error("empty gini nonzero")
	}
}

// TestGiniBoundsQuick property: Gini of any non-negative sample lies in
// [0, 1).
func TestGiniBoundsQuick(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%50) + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		g := Gini(vals)
		return g >= -1e-9 && g < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTopShare(t *testing.T) {
	counts := []int{50, 30, 10, 5, 5}
	if s := TopShare(counts, 2); math.Abs(s-0.8) > 1e-12 {
		t.Errorf("TopShare = %f; want 0.8", s)
	}
	if TopShare(nil, 3) != 0 {
		t.Error("empty TopShare nonzero")
	}
}

// TestUniversePortLawIsHeavyTailed validates the §4 substrate property:
// port popularity in the generated universe follows a heavy-tailed law
// with a dominant head.
func TestUniversePortLawIsHeavyTailed(t *testing.T) {
	u := netmodel.Generate(netmodel.TestParams(91))
	pop := u.PortPopulation()
	fit := FitZipf(pop)
	if fit.Alpha < 0.5 {
		t.Errorf("port popularity alpha = %.2f; want a heavy tail (>0.5)", fit.Alpha)
	}
	top10 := TopShare(pop, 10)
	if top10 < 0.3 {
		t.Errorf("top-10 ports hold %.2f of services; expected a dominant head", top10)
	}
	// And a genuine tail: the top 10 must not hold everything.
	if top10 > 0.99 {
		t.Errorf("top-10 ports hold %.2f; the long tail is missing", top10)
	}
}
