package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// -compare: a benchstat-style table of two run sets, one row per
// (workload, metric) with each side's median and quartiles. A row is
// "regressed" when B's median is worse than A's by more than the
// metric's bound; "unresolved", not "same", when the spread between one
// side's own runs is wider than the bound, unless every run of one side
// beats every run of the other; else "same" or "improved". A metric
// whose bound is zero is exact: it has no spread to hide in, and any
// worsening is a regression. Per-layer metrics carry no bound and get no
// verdict.

func readRunSet(path string) (runSet, error) {
	var set runSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %v", path, err)
	}
	return set, nil
}

// valuesOf collects one metric's value from every run of a workload.
func valuesOf(set runSet, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range set.Runs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// worseBy returns by what share of a's median b's median is worse, in
// the metric's direction. With a zero baseline any worsening is infinite.
func worseBy(m metricSpec, a, b float64) float64 {
	d := b - a
	if m.better == "higher" {
		d = a - b
	}
	switch {
	case d == 0:
		return 0
	case a == 0:
		return math.Inf(int(d / math.Abs(d)))
	}
	return d / math.Abs(a)
}

// separated reports whether every run of one side reads better than
// every run of the other.
func separated(as, bs []float64) bool {
	return slices.Max(as) < slices.Min(bs) || slices.Max(bs) < slices.Min(as)
}

func relSpread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func verdict(m metricSpec, as, bs []float64) string {
	worse := worseBy(m, median(as), median(bs))
	spread := max(relSpread(as), relSpread(bs))
	switch {
	case m.bound > 0 && spread > m.bound && !separated(as, bs):
		return "unresolved"
	case worse > m.bound:
		return "regressed"
	case worse < 0 && -worse > m.bound:
		return "improved"
	}
	return "same"
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRunSet(pathA)
	if err == nil {
		var b runSet
		if b, err = readRunSet(pathB); err == nil {
			return compareSets(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "gpsbench:", err)
	return 2
}

func compareSets(w io.Writer, a, b runSet) int {
	fmt.Fprintf(w, "A: %s on %d x %q, %s\nB: %s on %d x %q, %s\n\n",
		a.Commit, a.NProc, a.CPUModel, a.GoVersion, b.Commit, b.NProc, b.CPUModel, b.GoVersion)
	fmt.Fprintf(w, "%-16s %-26s %-38s %-38s %9s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "worse by", "verdict")
	regressed := 0
	row := func(wl string, traced bool, m metricSpec) {
		as, bs := valuesOf(a, wl, traced, m.name), valuesOf(b, wl, traced, m.name)
		if len(as) == 0 || len(bs) == 0 {
			return
		}
		side := func(xs []float64) string {
			q1, med, q3 := quartiles(xs)
			return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", med, q1, q3, len(xs))
		}
		v := "-"
		if !traced {
			if v = verdict(m, as, bs); v == "regressed" {
				regressed++
			}
		}
		fmt.Fprintf(w, "%-16s %-26s %-38s %-38s %+8.1f%%  %s\n", wl, m.name+" "+m.unit, side(as), side(bs),
			100*worseBy(m, median(as), median(bs)), v)
	}
	for _, wl := range workloads {
		for _, m := range endToEnd {
			row(wl.name, false, m)
		}
		for _, m := range perLayer {
			row(wl.name, true, m)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "\n%d regressed\n", regressed)
		return 1
	}
	return 0
}
