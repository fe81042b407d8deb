package shard

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
)

// Merged is the single global view folded from per-shard pipeline results:
// one inventory, one anchor set, one discovery log, with the per-shard
// bandwidth both summed (total cost) and maxed (the bottleneck shard that
// sets wall-clock time in a real deployment).
type Merged struct {
	// Shards is how many partitions produced this view.
	Shards int
	// Results holds the per-shard results, indexed by shard.
	Results []*pipeline.Result

	// Found is the merged inventory: every service any shard discovered.
	Found map[netmodel.Key]bool
	// Anchors is the union of the shards' priors-scan anchors, sorted by
	// (IP, port).
	Anchors []dataset.Record
	// Discoveries is the union of the shards' discovery logs, sorted by
	// (IP, port); Probes inside each entry remains the *shard-local*
	// cumulative count at discovery time.
	Discoveries []pipeline.Discovery

	// SeedProbes is the seed collection cost under the broadcast-seed
	// workflow Run uses (every shard trains on the same seed snapshot, so
	// the cost is counted once as the max across shards). Callers who
	// instead trained each shard on a disjoint Partition slice should sum
	// their slices' CollectionProbes themselves — the merge cannot tell
	// the two workflows apart.
	SeedProbes uint64
	// PriorsProbes and PredictProbes sum the shards' scan bandwidth.
	PriorsProbes, PredictProbes uint64
	// MaxShardProbes is the bottleneck shard's scan bandwidth: total
	// wall-clock in a real deployment is set by this, not the sum.
	MaxShardProbes uint64
	// Middleboxes sums the responses LZR discarded across shards.
	Middleboxes int
	// MergeTime is how long the cross-shard fold took.
	MergeTime time.Duration
}

// TotalScanProbes returns the summed priors + prediction bandwidth.
func (m *Merged) TotalScanProbes() uint64 { return m.PriorsProbes + m.PredictProbes }

// Run executes one batch GPS run partitioned over n shards: n independent
// pipeline.Run calls, each owning one hash partition of the address space
// with its own model, MPF, and 1/n slice of the probe budget, folded into
// one Merged view. The seed set is broadcast to every shard — the model
// computation is cheap and replicating it keeps every shard's predictions
// consistent with the unsharded run (each shard trains an identical model
// instance, as independent nodes would from a shared seed snapshot).
// n <= 1 degenerates to a plain unsharded run.
//
// With cfg.Budget == 0 the merged inventory is byte-identical to the
// unsharded run's. A finite budget is sliced 1/n per shard, and each
// shard cuts its scan where its own slice runs out rather than where the
// single global probe ordering would — the merged inventory then only
// approximates the budgeted unsharded run.
func Run(u *netmodel.Universe, seedSet *dataset.Dataset, cfg pipeline.Config, n int) (*Merged, error) {
	if n < 1 {
		n = 1
	}
	budgets := SliceBudget(cfg.Budget, n)
	results := make([]*pipeline.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scfg := cfg
			scfg.ShardIndex, scfg.ShardCount = i, n
			scfg.Budget = budgets[i]
			results[i], errs[i] = pipeline.Run(u, seedSet, scfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d/%d: %w", i, n, err)
		}
	}
	return MergeResults(results), nil
}

// MergeResults folds per-shard pipeline results into one global view.
// The results must come from disjoint partitions, as Run's do: each
// shard's run scans only the addresses asndb.ShardOf gives it, so no key
// is reported twice and the fold is a concatenation.
func MergeResults(results []*pipeline.Result) *Merged {
	start := time.Now()
	m := &Merged{
		Shards:  len(results),
		Results: results,
		Found:   make(map[netmodel.Key]bool),
	}
	for _, r := range results {
		if r.SeedProbes > m.SeedProbes {
			m.SeedProbes = r.SeedProbes
		}
		m.PriorsProbes += r.PriorsProbes
		m.PredictProbes += r.PredictProbes
		m.Middleboxes += r.Middleboxes
		if scan := r.TotalScanProbes(); scan > m.MaxShardProbes {
			m.MaxShardProbes = scan
		}
		for k := range r.Found {
			m.Found[k] = true
		}
		m.Anchors = append(m.Anchors, r.Anchors...)
		m.Discoveries = append(m.Discoveries, r.Discoveries...)
	}
	sort.Slice(m.Anchors, func(i, j int) bool { return m.Anchors[i].Key().Compare(m.Anchors[j].Key()) < 0 })
	sort.Slice(m.Discoveries, func(i, j int) bool { return m.Discoveries[i].Key.Compare(m.Discoveries[j].Key) < 0 })
	m.MergeTime = time.Since(start)
	return m
}
