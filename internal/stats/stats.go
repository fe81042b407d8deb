// Package stats provides the distribution analysis used to validate the
// synthetic universe against the structural claims of §4: port popularity
// follows a heavy-tailed (Zipf-like) law, services concentrate in a small
// share of subnets, and feature values vary widely in entropy. The gpsgen
// command and the netmodel tests use these to check that the substrate
// actually has the statistics GPS exploits.
package stats

import (
	"math"
	"sort"
)

// ZipfFit estimates the exponent of a rank-frequency power law
// f(r) ∝ r^(-alpha) by least squares on log-log coordinates. Counts are
// sorted descending internally; zero counts are dropped. R2 reports the
// fit quality in log-log space.
type ZipfFit struct {
	Alpha float64
	R2    float64
	Ranks int
}

// FitZipf fits the rank-frequency exponent.
func FitZipf(counts []int) ZipfFit {
	cs := make([]int, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			cs = append(cs, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cs)))
	if len(cs) < 3 {
		return ZipfFit{Ranks: len(cs)}
	}
	// Least squares on (log rank, log count).
	n := float64(len(cs))
	var sx, sy, sxx, sxy float64
	for i, c := range cs {
		x := math.Log(float64(i + 1))
		y := math.Log(float64(c))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return ZipfFit{Ranks: len(cs)}
	}
	slope := (n*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / n
	// R^2.
	meanY := sy / n
	var ssRes, ssTot float64
	for i, c := range cs {
		x := math.Log(float64(i + 1))
		y := math.Log(float64(c))
		pred := intercept + slope*x
		ssRes += (y - pred) * (y - pred)
		ssTot += (y - meanY) * (y - meanY)
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return ZipfFit{Alpha: -slope, R2: r2, Ranks: len(cs)}
}

// Gini computes the Gini coefficient of a sample of non-negative values:
// 0 for perfect equality, approaching 1 for total concentration. Used to
// quantify how concentrated services are across subnets.
func Gini(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var cum, total float64
	n := float64(len(sorted))
	for i, v := range sorted {
		cum += v * float64(len(sorted)-i)
		total += v
	}
	if total == 0 {
		return 0
	}
	return (n + 1 - 2*cum/total) / n
}

// TopShare returns the fraction of the total mass held by the top-k
// values: "the top 10 ports hold 5% of all services" style statements.
func TopShare(counts []int, k int) float64 {
	cs := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(cs)))
	var total, top int
	for i, c := range cs {
		total += c
		if i < k {
			top += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}
