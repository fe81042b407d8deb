package experiments

import (
	"fmt"
	"slices"

	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/metrics"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
)

// ContinuousPoint is one epoch of the continuous-scanning experiment.
type ContinuousPoint struct {
	Epoch int
	// Coverage is the fraction of the *current* (churned) universe's
	// ground truth present and fresh in the inventory — the metric a
	// one-shot scan loses ~1% of per day (§3).
	Coverage float64
	// Known is the inventory size after the epoch.
	Known int
	// AliveFrac is the re-verification survival rate; StaleRate the
	// share of the inventory carrying a stale mark.
	AliveFrac, StaleRate float64
	// Probes is the epoch's bandwidth.
	Probes uint64
}

// ContinuousResult is the coverage-vs-epoch series of a continuous scan
// against a churning universe.
type ContinuousResult struct {
	Points []ContinuousPoint
	// BudgetScans is the per-epoch budget in 100%-scan units.
	BudgetScans float64
}

// ContinuousEpochs is the default epoch count of the experiment.
const ContinuousEpochs = 8

// Continuous runs the continuous-scanning subsystem for the given number
// of epochs under DefaultChurn and measures, after every epoch, how much
// of the *current* universe the inventory still covers. A batch scanner's
// coverage of the current universe only decays; the continuous scanner's
// re-verify + re-train + discover loop holds it steady.
func Continuous(s *Setup, epochs int) *ContinuousResult {
	space := s.Universe.SpaceSize()
	seedSet, _ := SplitEval(s.LZR, s.Scale.SeedMid, true, 61)
	cfg := continuous.Config{
		// A recurring budget of 20 one-port passes per epoch: roughly
		// what the first full discovery needs, and 3000x less than one
		// exhaustive all-port scan.
		Budget:   20 * space,
		Pipeline: pipeline.Config{Seed: 61},
	}
	r := continuous.New(seedSet, cfg)
	res := &ContinuousResult{BudgetScans: 20}

	world := s.Universe
	for e := 1; e <= epochs; e++ {
		world = netmodel.Churn(world, netmodel.DefaultChurn(s.Scale.Params.Seed+int64(e)))
		stats, err := r.Epoch(world)
		if err != nil {
			panic(err)
		}
		truth := dataset.SnapshotCensys(world, s.Scale.CensysPorts)
		found, known := 0, r.State().Known
		for _, rec := range truth.Records {
			i, ok := slices.BinarySearchFunc(known, rec.Key(), func(e continuous.Entry, k netmodel.Key) int { return e.Rec.Key().Compare(k) })
			if ok && known[i].Stale == 0 {
				found++
			}
		}
		p := ContinuousPoint{
			Epoch:     e,
			Known:     stats.KnownSize,
			AliveFrac: stats.Freshness.AliveFrac(),
			StaleRate: stats.Freshness.StaleRate(),
			Probes:    stats.Probes(),
		}
		if truth.NumServices() > 0 {
			p.Coverage = float64(found) / float64(truth.NumServices())
		}
		res.Points = append(res.Points, p)
	}
	return res
}

// Curve converts the series into a coverage-vs-bandwidth curve (FracAll =
// coverage of the then-current universe, probes cumulative across epochs)
// so it can be exported like the figure series.
func (r *ContinuousResult) Curve(space uint64) metrics.Curve {
	var c metrics.Curve
	var probes uint64
	for _, p := range r.Points {
		probes += p.Probes
		pt := metrics.Point{Probes: probes, Found: p.Known, FracAll: p.Coverage}
		if space > 0 {
			pt.ScansUnits = float64(probes) / float64(space)
		}
		c = append(c, pt)
	}
	return c
}

// Table renders the per-epoch series.
func (r *ContinuousResult) Table() Table {
	t := Table{
		Title:  "Continuous scanning: coverage of the churning universe per epoch",
		Header: []string{"epoch", "coverage", "known", "alive-frac", "stale-rate", "probes"},
		Notes: []string{
			fmt.Sprintf("per-epoch budget: %.0f one-port passes; churn per epoch: DefaultChurn (~9%%/10d of §3)", r.BudgetScans),
			"coverage is measured against the *current* universe each epoch: a batch scan's coverage here only decays",
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Epoch),
			fmtPct(p.Coverage),
			fmt.Sprintf("%d", p.Known),
			fmtPct(p.AliveFrac),
			fmtPct(p.StaleRate),
			fmt.Sprintf("%d", p.Probes),
		})
	}
	return t
}
