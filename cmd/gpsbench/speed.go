package main

import (
	"math"
	"sort"
	"time"
)

// The machine this benchmark runs on is shared, and its speed drifts.
// Measured over an afternoon, twelve runs of each workload minutes apart:
// CPU time per op spread (quartile distance over median) by 7 to 21%,
// wall time by 11 to 30%, while allocations per op repeated to a tenth of
// a percent. Most of that drift is common to all code, so it can be
// measured beside the workload and divided out.
//
// A speedometer times two fixed reference kernels between the ops (or
// the windows) of a measured section: one is arithmetic on a table that
// fits the first-level cache, the other builds, sorts and walks a map of
// small heap objects, which is what the program itself mostly does. The
// run's slowness is the geometric mean of the two kernels' median pass
// over their nominal times, and every time the run reports is divided by
// it: the numbers read as if the machine had run at nominal speed. On
// the runs above that brought the widest CPU spread of any workload from
// 21% to 12%, and on a calmer set from 13% to 7%; either kernel alone
// did about half as well. What the kernels do not follow stays in the
// numbers; bench/README.md has the spreads with and without.
//
// The kernels are the benchmark's own code and inputs: a change to the
// program cannot move them, except that the second one allocates and so
// runs a little slower while the program's garbage is being collected.
// A median over a run's passes does not see that until most passes
// overlap a collection.

const (
	// Nominal pass times: what this repository's 2.1 GHz reference
	// machine reads on a quiet afternoon. They only fix the scale.
	arithNominalMS = 0.70
	allocNominalMS = 2.30

	arithPasses = 5
	allocPasses = 3
)

var (
	arithTable [512]uint64
	refSink    uint64
)

func arithKernel() uint64 {
	x := uint64(88172645463325252)
	var sum uint64
	for i := 0; i < 300000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(arithTable)-1)
		sum += arithTable[j]
		arithTable[j] = sum ^ x
	}
	return sum
}

func allocKernel() uint64 {
	const n = 10000
	type cell struct{ a, b, c, d uint64 }
	m := make(map[uint64]*cell, n)
	keys := make([]uint64, 0, n)
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x] = &cell{a: x, b: x >> 3}
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var sum uint64
	for _, k := range keys {
		sum += m[k].a
	}
	return sum
}

type speedometer struct {
	arith, alloc []float64 // ms per pass
}

// read times a few passes of each kernel, after one that is discarded:
// it refills the cache lines the work before it evicted.
func (s *speedometer) read() {
	s.arith = timePasses(s.arith, arithKernel, arithPasses)
	s.alloc = timePasses(s.alloc, allocKernel, allocPasses)
}

func timePasses(to []float64, kernel func() uint64, passes int) []float64 {
	refSink += kernel()
	for i := 0; i < passes; i++ {
		t0 := time.Now()
		refSink += kernel()
		to = append(to, ms(time.Since(t0)))
	}
	return to
}

// slowness is how many times slower than nominal the machine ran while
// the readings were taken; 1 before any reading.
func (s *speedometer) slowness() float64 {
	if len(s.arith) == 0 {
		return 1
	}
	return math.Sqrt(median(s.arith) / arithNominalMS * median(s.alloc) / allocNominalMS)
}
