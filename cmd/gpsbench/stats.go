package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs must be sorted ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs, 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sortedCopy(xs), 0.5)
}

// quartiles returns (q1, median, q3) of xs, zeros for an empty slice.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// tailQuantile picks the highest percentile that still has at least ten
// samples beyond it, capped at p95 and never below the median: with n
// samples that is 1 - 10/n. The cap is where the request workloads'
// latency still follows the program on this shared machine. When a
// neighbour takes a core, about one request in a hundred waits out a
// scheduler timeslice (4 ms, against 0.15 ms): p99 then sits on that
// step and read from 0.13 to 2.3 ms within one afternoon, while p95
// moved with the machine's speed, as the median does.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	if q > 0.95 {
		return 0.95
	}
	if q < 0.5 {
		return 0.5
	}
	return q
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
