package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFile holds BENCHMARK.json to the limits its readers
// enforce and to this package's own tables.
func TestBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", f.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the command has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	check := func(kind string, got []benchmarkMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the command has %d", len(got), kind, len(want))
		}
		for i, m := range got {
			name(kind+" metric", m.Name)
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s metric %d is %+v, the command has %+v", kind, i, m, w)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != w.bound || *m.Bound < 0 || *m.Bound > 0.25):
				t.Errorf("metric %s: bound %v, the command has %v (limit 0.25)", m.Name, m.Bound, w.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("metric %s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	var everywhere []metricSpec
	for _, m := range endToEnd {
		if m.everywhere {
			everywhere = append(everywhere, m)
		}
	}
	check("end-to-end", f.EndToEnd, everywhere, true)
	check("per-layer", f.PerLayer, perLayer, false)
	if m := everywhere[0]; m.name != "setup_s" || m.unit != "s" || m.better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; it is %+v", m)
	}
}

// deterministic lists the metrics that are pure functions of the seed,
// with the workloads they are checked on.
var deterministic = []struct {
	workload string
	traced   bool
	metric   string
}{
	{"epoch-dist", false, "coverage_frac"},
	{"epoch-dist", false, "hits_per_kprobe"},
	{"batch-predict", false, "coverage_frac"},
	{"batch-predict", false, "hits_per_kprobe"},
	{"replicate-churn", false, "wire_kb_per_op"},
	{"batch-predict", true, "scanner.probes"},
	{"epoch-dist", true, "shard.delta_entries"},
	{"replicate-churn", true, "shard.delta_entries"},
}

// TestSmoke runs every workload, untraced and traced, at the smoke scale:
// twice on seed 1 and once on seed 2. Every run must be correct and emit
// exactly the metrics BENCHMARK.json declares, with their units; the
// deterministic metrics must repeat bit for bit on the same seed and
// differ on another.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	type key struct {
		workload string
		traced   bool
	}
	runAll := func(seed int64) map[key]result {
		out := make(map[key]result)
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res := runWorkload(w, seed, 0.3, traced, smokeScale, t.TempDir())
				if !res.Correct {
					t.Errorf("%s seed=%d traced=%v: %d of %d ops failed: %s", w.name, seed, traced, res.Failed, res.Attempted, res.Notes["wrong"])
				}
				checkLine(t, f, res)
				out[key{w.name, traced}] = res
			}
		}
		return out
	}
	a, b, c := runAll(1), runAll(1), runAll(2)
	for _, d := range deterministic {
		k := key{d.workload, d.traced}
		va, vb, vc := a[k].Metrics[d.metric], b[k].Metrics[d.metric], c[k].Metrics[d.metric]
		if va == 0 || math.IsNaN(va) {
			t.Errorf("%s %s: no value on seed 1", d.workload, d.metric)
		}
		if va != vb {
			t.Errorf("%s %s: %v and %v on two runs of seed 1", d.workload, d.metric, va, vb)
		}
		if va == vc {
			t.Errorf("%s %s: %v on seed 1 and on seed 2", d.workload, d.metric, va)
		}
	}
}

// checkLine holds one run's result line to BENCHMARK.json: exactly the
// declared metrics for its mode, each once, each with its declared unit,
// and no end-to-end metric zero.
func checkLine(t *testing.T, f benchmarkFile, res result) {
	t.Helper()
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	raw := resultLine(res)
	if err := json.Unmarshal(raw, &line); err != nil {
		t.Fatalf("%s: result line %s: %v", res.Workload, raw, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Errorf("%s: result line %s lacks correct, attempted or failed", res.Workload, raw)
	}
	declared := f.EndToEnd
	if res.Trace {
		declared = f.PerLayer
	}
	if len(line.Metrics) != len(declared) {
		t.Errorf("%s traced=%v: %d metrics on the result line, BENCHMARK.json declares %d", res.Workload, res.Trace, len(line.Metrics), len(declared))
	}
	for _, m := range declared {
		got, ok := line.Metrics[m.Name]
		switch {
		case !ok || got.Value == nil:
			t.Errorf("%s traced=%v: metric %s is missing", res.Workload, res.Trace, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", res.Workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
			t.Errorf("%s: metric %s is %v", res.Workload, m.Name, *got.Value)
		case !res.Trace && *got.Value == 0:
			t.Errorf("%s: end-to-end metric %s is zero", res.Workload, m.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{name: "latency_p50_ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "throughput_ops_s", better: "higher", bound: 0.10}
	exact := metricSpec{name: "coverage_frac", better: "higher", bound: 0}
	for _, c := range []struct {
		m      metricSpec
		as, bs []float64
		want   string
	}{
		{lower, []float64{100, 101, 102}, []float64{100, 102, 103}, "same"},
		{lower, []float64{100, 101, 102}, []float64{120, 121, 122}, "regressed"},
		{lower, []float64{100, 101, 102}, []float64{80, 81, 82}, "improved"},
		{lower, []float64{100, 130, 160}, []float64{110, 140, 170}, "unresolved"},
		{lower, []float64{100, 130, 160}, []float64{200, 230, 260}, "regressed"},
		{higher, []float64{100, 101, 102}, []float64{80, 81, 82}, "regressed"},
		{higher, []float64{100, 101, 102}, []float64{120, 121, 122}, "improved"},
		{exact, []float64{0.9, 0.9, 0.9}, []float64{0.9, 0.9, 0.9}, "same"},
		{exact, []float64{0.9, 0.9, 0.9}, []float64{0.8, 0.8, 0.8}, "regressed"},
		{metricSpec{name: "fail_frac", better: "lower"}, []float64{0, 0, 0}, []float64{0, 0.01, 0.01}, "regressed"},
	} {
		if got := verdict(c.m, c.as, c.bs); got != c.want {
			t.Errorf("%s: A=%v B=%v: verdict %q, want %q", c.m.name, c.as, c.bs, got, c.want)
		}
	}
}

// TestAtNominalSpeed checks that a run's slowness scales its times and
// rates and leaves its counts alone.
func TestAtNominalSpeed(t *testing.T) {
	r := newRun("epoch-dist", 1, 1, false, smokeScale)
	if got := r.speed.slowness(); got != 1 {
		t.Fatalf("slowness before any reading is %v, want 1", got)
	}
	r.speed.arith = []float64{2 * arithNominalMS}
	r.speed.alloc = []float64{8 * allocNominalMS}
	r.metrics["latency_p50_ms"] = 100
	r.metrics["throughput_ops_s"] = 10
	r.metrics["allocs_per_op"] = 1000
	r.metrics["setup_s"] = 3
	r.atNominalSpeed()
	want := map[string]float64{"latency_p50_ms": 25, "throughput_ops_s": 40, "allocs_per_op": 1000, "setup_s": 3}
	for name, v := range want {
		if got := r.metrics[name]; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s is %v at a slowness of 4, want %v", name, got, v)
		}
	}
}
