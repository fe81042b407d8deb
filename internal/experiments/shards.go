package experiments

import (
	"fmt"
	"maps"
	"time"

	"gps/internal/metrics"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
	"gps/internal/shard"
)

// ShardsPoint is one shard count of the scale-out experiment.
type ShardsPoint struct {
	Shards int
	// Coverage is the merged run's fraction of the test ground truth —
	// identical across shard counts when partitioning preserves the
	// pipeline's discoveries.
	Coverage float64
	// Found is the merged inventory size.
	Found int
	// TotalProbes sums every shard's scan bandwidth (the global cost).
	TotalProbes uint64
	// MaxShardProbes is the bottleneck shard's bandwidth: the quantity
	// that shrinks ~linearly with the shard count and sets wall-clock
	// time on real hardware.
	MaxShardProbes uint64
	// Wall is the wall-clock time of the whole sharded run (all shards
	// concurrent), and Merge the cross-shard fold alone.
	Wall, Merge time.Duration
	// Identical reports whether the merged inventory is the 1-shard
	// baseline's, key for key — the determinism contract.
	Identical bool
}

// ShardsResult is the scale-out analogue of Table 2: instead of one
// warehouse parallelizing the model computation, N shards partition the
// entire pipeline — scan included — and a cross-shard merge rebuilds the
// global inventory.
type ShardsResult struct {
	Points []ShardsPoint
}

// DefaultShardCounts is the sweep the shards experiment runs.
var DefaultShardCounts = []int{1, 2, 4, 8}

// ShardsExperiment runs one batch GPS pipeline at each shard count and
// measures coverage (must stay flat), per-shard bandwidth (must fall
// ~1/N), merge cost (must stay small), and whether the merged inventory
// reproduces the unsharded run byte for byte.
func ShardsExperiment(s *Setup, counts []int) *ShardsResult {
	if len(counts) == 0 {
		counts = DefaultShardCounts
	}
	seedSet, testSet := SplitEval(s.LZR, s.Scale.SeedMid, true, 55)
	gt := metrics.NewGroundTruth(testSet)
	cfg := pipeline.Config{Seed: 55}

	res := &ShardsResult{}
	// The determinism baseline is always a real 1-shard run, whatever
	// order (or subset) of counts the caller asked for; when counts
	// starts with 1 that run doubles as the first point.
	var baseline map[netmodel.Key]bool
	if counts[0] != 1 {
		m1, err := shard.Run(s.Universe, seedSet, cfg, 1)
		if err != nil {
			panic(err)
		}
		baseline = m1.Found
	}
	for _, n := range counts {
		start := time.Now()
		m, err := shard.Run(s.Universe, seedSet, cfg, n)
		if err != nil {
			panic(err)
		}
		wall := time.Since(start)

		if baseline == nil {
			baseline = m.Found
		}
		found := 0
		for k := range m.Found {
			if gt.Contains(k) {
				found++
			}
		}
		p := ShardsPoint{
			Shards:         n,
			Found:          len(m.Found),
			TotalProbes:    m.TotalScanProbes(),
			MaxShardProbes: m.MaxShardProbes,
			Wall:           wall,
			Merge:          m.MergeTime,
			Identical:      maps.Equal(m.Found, baseline),
		}
		if gt.Total() > 0 {
			p.Coverage = float64(found) / float64(gt.Total())
		}
		res.Points = append(res.Points, p)
	}
	return res
}

// Table renders the sweep.
func (r *ShardsResult) Table() Table {
	t := Table{
		Title: "Shard scale-out: one pipeline partitioned over N hash shards",
		Header: []string{"shards", "coverage", "found", "total-probes",
			"max-shard-probes", "wall", "merge", "identical"},
		Notes: []string{
			"max-shard-probes is the bottleneck shard's bandwidth: ~1/N of the unsharded scan",
			"identical: merged inventory byte-identical to the 1-shard run (determinism across partitioning)",
			"the paper's Table 2 parallelizes the model computation inside one warehouse; this sweep is the multi-node analogue",
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Shards),
			fmtPct(p.Coverage),
			fmt.Sprintf("%d", p.Found),
			fmt.Sprintf("%d", p.TotalProbes),
			fmt.Sprintf("%d", p.MaxShardProbes),
			p.Wall.Round(time.Millisecond).String(),
			p.Merge.Round(time.Microsecond).String(),
			fmt.Sprintf("%v", p.Identical),
		})
	}
	return t
}
