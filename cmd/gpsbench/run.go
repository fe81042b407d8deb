package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// run is one run of one workload: its inputs, its tracer, and what it
// reports.
type run struct {
	name    string
	seed    int64
	seconds float64
	sc      scale
	procs   int     // client goroutines and connections: nproc
	tr      *tracer // nil unless traced
	// speed is read between the ops of the measured section; the times
	// the run reports are divided by its slowness.
	speed speedometer

	metrics   map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	wrong     []string // the first few wrong answers, for the notes
}

func newRun(name string, seed int64, seconds float64, traced bool, sc scale) *run {
	r := &run{
		name: name, seed: seed, seconds: seconds, sc: sc,
		procs:   runtime.GOMAXPROCS(0),
		metrics: make(map[string]float64),
		notes:   make(map[string]string),
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func (r *run) traced() bool { return r.tr != nil }

// endWarmup forgets what the warm-up ops counted.
func (r *run) endWarmup() {
	r.attempted = 0
	r.speed = speedometer{}
}

// failf records one failed, refused or wrong-answer operation.
func (r *run) failf(format string, args ...any) {
	r.failed++
	if len(r.wrong) < 5 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// timeSetups runs setup the scale's number of times and then, while the
// set-ups so far took less than the scale's setupSeconds together, up to
// three times as often: a 0.1 s set-up is timed fifteen times, a 0.6 s one
// five (timed five times, the short ones read 10 to 20% apart from run to
// run). It tears each product but the last down and reports the median duration as
// setup_s. An optimisation that moves work out of the measured section
// lands here. A traced run sets up once and reports no set-up time.
func timeSetups[T any](r *run, setup func() (T, error), teardown func(T)) (T, error) {
	n, budget := r.sc.setups, r.sc.setupSeconds
	if r.traced() {
		n, budget = 1, 0
	}
	var last T
	var secs []float64
	var total float64
	var speed speedometer
	for i := 0; i < n || (i < 3*n && total < budget); i++ {
		if i > 0 {
			teardown(last)
		}
		speed.read()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		total += secs[len(secs)-1]
		last = v
	}
	if !r.traced() {
		speed.read()
		r.metrics["setup_s"] = median(secs) / speed.slowness()
		r.notes["setup"] = fmt.Sprintf("median of %d set-ups, at slowness %.4f", len(secs), speed.slowness())
	}
	return last, nil
}

// atNominalSpeed divides every time the run measured by the slowness of
// the machine while it measured them (and multiplies the rates), so that
// the drift of a shared machine does not read as a change in the program.
// setup_s was taken before the measured section, at a slowness of its own.
func (r *run) atNominalSpeed() {
	slow := r.speed.slowness()
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range specs {
			v, ok := r.metrics[m.name]
			if !ok {
				continue
			}
			switch m.unit {
			case "ms", "us":
				r.metrics[m.name] = v / slow
			case "ops/s":
				r.metrics[m.name] = v * slow
			}
		}
	}
	r.notes["slowness"] = fmt.Sprintf("%.4f over %d readings of the reference kernels; times are divided by it", slow, len(r.speed.arith)/arithPasses)
}

// section is one measured section of a sequential workload: it lasts a
// share of the run's seconds, and at least one op.
type section struct {
	end   time.Time
	fixed int
	done  int
}

func (r *run) section(share float64) *section {
	return &section{
		end:   time.Now().Add(time.Duration(share * r.seconds * float64(time.Second))),
		fixed: r.sc.fixedOps,
	}
}

// next reports whether the section has room for another op, and counts it.
func (s *section) next() bool {
	more := s.done == 0 || time.Now().Before(s.end)
	if s.fixed > 0 {
		more = s.done < s.fixed
	}
	if more {
		s.done++
	}
	return more
}

// layerSamples collects per-op samples of the per-layer metrics during a
// traced run; each metric is reported as the median over the ops.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

// report writes the median of every collected metric into the run.
func (l layerSamples) report(r *run) {
	names := make([]string, 0, len(l))
	for name := range l {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.metrics[name] = median(l[name])
	}
}

// timed runs f and returns its wall time in milliseconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return ms(time.Since(t0))
}

// timedAllocs runs f and returns its wall time in milliseconds and the
// heap objects the process allocated meanwhile. Only meaningful when
// nothing else in the process is running.
func timedAllocs(f func()) (float64, float64) {
	c0 := readCounters()
	f()
	c1 := readCounters()
	return ms(c1.t.Sub(c0.t)), float64(c1.mallocs - c0.mallocs)
}
