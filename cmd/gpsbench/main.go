// Command gpsbench is the repository's benchmark: five seeded workloads
// driven from one process through the real scan → shard → transport →
// serve → replicate stack over loopback sockets, every output checked,
// every metric printed by name with its unit.
//
//	gpsbench -workload all -seed 1 -runs 3 -out bench/out/run.json
//	gpsbench -workload epoch-dist -seed 1 -seconds 20 -trace 1
//	gpsbench -compare A.json B.json
//
// An untraced run prints the end-to-end metrics; a -trace 1 run records
// the benchmark's own spans around each call into a layer and prints the
// per-layer metrics. Every layer is measured from outside, through its
// public functions: the program's span tree and EpochStats.Phases are
// not read, so they can be restructured without editing this command.
// bench/README.md has the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// scale sizes the generated worlds. The normal scale is the benchmark;
// the smoke scale exists so the test can run every workload in seconds.
type scale struct {
	epochPrefixes   int     // epoch-dist: /16 blocks of the world
	epochs          int     // epoch-dist: epochs per repetition
	batchPrefixes   int     // batch-predict: /16 blocks
	churnPrefixes   int     // replicate-churn: /16 blocks behind the inventory
	pointPrefixes   int     // query-point: /16 blocks behind the snapshot
	pagePrefixes    int     // query-page: /16 blocks behind the snapshot
	commitEvery     float64 // query-point: seconds between commits
	openLoopRate    float64 // query-point: open-loop requests per second
	setups          int     // set-ups timed per run at least; setup_s is their median
	setupSeconds    float64 // set-ups go on, up to 3×setups, until they took this long together
	windowSeconds   float64 // query-*: wall seconds per statistical window
	minPageServices int     // query-page: smallest postings list walked
	// fixedOps, when set, ends a sequential workload's measured section
	// after that many ops (repetitions, for epoch-dist) and not by the
	// clock, so that two runs of one seed do exactly the same work.
	fixedOps int
	smoke    bool
}

var (
	normalScale = scale{
		epochPrefixes: 4, epochs: 5, batchPrefixes: 12, churnPrefixes: 32, pointPrefixes: 10, pagePrefixes: 32,
		commitEvery: 1, openLoopRate: 4000, setups: 5, setupSeconds: 1.5, windowSeconds: 1, minPageServices: 1000,
	}
	smokeScale = scale{
		epochPrefixes: 2, epochs: 2, batchPrefixes: 2, churnPrefixes: 2, pointPrefixes: 2, pagePrefixes: 2,
		commitEvery: 0.1, openLoopRate: 2000, setups: 1, windowSeconds: 0.1, minPageServices: 100, fixedOps: 2, smoke: true,
	}
)

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Notes carry what a number needs to be read: the tail percentile
	// and its sample count, an A/B delta's band, the first wrong answers.
	Notes map[string]string `json:"notes,omitempty"`
}

// runSet is what -out writes: every run, not only medians, with the
// machine it ran on.
type runSet struct {
	NProc     int      `json:"nproc"`
	GoVersion string   `json:"go_version"`
	CPUModel  string   `json:"cpu_model"`
	Commit    string   `json:"commit"`
	Smoke     bool     `json:"smoke,omitempty"`
	Runs      []result `json:"runs"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or 'all'")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs; the only input that varies them")
		seconds  = flag.Float64("seconds", 20, "length of each workload's measured section")
		trace    = flag.Int("trace", 0, "1 records the benchmark's spans and prints the per-layer metrics")
		runs     = flag.Int("runs", 1, "runs of each workload; a set of runs is -runs 3")
		out      = flag.String("out", "", "write every run as JSON to this file")
		smoke    = flag.Bool("smoke", false, "tiny worlds: checks the harness, measures nothing")
		traceDir = flag.String("tracedir", filepath.Join("bench", "out"), "directory a traced run writes trace-<workload>.json to")
		compare  = flag.Bool("compare", false, "compare two -out files: gpsbench -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: gpsbench -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *runs < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	var selected []workloadSpec
	if *workload == "all" {
		selected = workloads
	} else {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "gpsbench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []workloadSpec{w}
	}

	sc := normalScale
	if *smoke {
		sc = smokeScale
	}
	set := runSet{
		NProc: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: buildCommit(), Smoke: *smoke,
	}
	fmt.Printf("gpsbench: nproc=%d go=%s cpu=%q commit=%s\n", set.NProc, set.GoVersion, set.CPUModel, set.Commit)

	ok := true
	for i := 0; i < *runs; i++ {
		for _, w := range selected {
			res := runWorkload(w, *seed, *seconds, *trace == 1, sc, *traceDir)
			set.Runs = append(set.Runs, res)
			printResult(res)
			ok = ok && res.Correct
		}
	}
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fmt.Fprintln(os.Stderr, "gpsbench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload runs one workload once and folds what it reported into a
// result. A workload error (as opposed to a wrong answer, which the
// workload counts itself) fails the whole run.
func runWorkload(w workloadSpec, seed int64, seconds float64, traced bool, sc scale, traceDir string) result {
	r := newRun(w.name, seed, seconds, traced, sc)
	if err := w.run(r); err != nil {
		r.failf("run aborted: %v", err)
	}
	r.atNominalSpeed()
	if r.attempted == 0 {
		r.attempted = 1
		if r.failed == 0 {
			r.failf("no operation completed")
		}
	}
	if r.failed > r.attempted {
		r.failed = r.attempted
	}
	if !traced {
		r.metrics["fail_frac"] = float64(r.failed) / float64(r.attempted)
	}
	if r.tr != nil {
		path := filepath.Join(traceDir, "trace-"+w.name+".json")
		if err := writeJSON(path, r.tr.finished()); err != nil {
			r.failf("writing %s: %v", path, err)
		}
	}
	if len(r.wrong) > 0 {
		r.notes["wrong"] = strings.Join(r.wrong, "; ")
	}
	return result{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: r.metrics, Notes: r.notes,
	}
}

// resultLine is the one-line JSON object a driver reads. An untraced
// run's line carries the end-to-end metrics every workload reports; a
// traced run's carries every per-layer metric, zero where the layer did
// not run in the workload.
func resultLine(res result) []byte {
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]lineMetric)}
	specs := endToEnd
	if res.Trace {
		specs = perLayer
	}
	for _, m := range specs {
		if res.Trace || m.everywhere {
			line.Metrics[m.name] = lineMetric{Value: res.Metrics[m.name], Unit: m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	return b
}

// printResult prints one run: a table of every metric by name with its
// unit, the notes, then the result line.
func printResult(res result) {
	specs := endToEnd
	if res.Trace {
		specs = perLayer
	}
	fmt.Printf("\n== %s seed=%d seconds=%g trace=%v correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Correct, res.Attempted, res.Failed)
	for _, m := range specs {
		v, ok := res.Metrics[m.name]
		switch {
		case ok:
			fmt.Printf("%-28s %16.6g %s\n", m.name, v, m.unit)
		case res.Trace:
			fmt.Printf("%-28s %16s %s\n", m.name, "0", m.unit)
		default:
			fmt.Printf("%-28s %16s %s\n", m.name, "null", m.unit)
		}
	}
	notes := make([]string, 0, len(res.Notes))
	for k := range res.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Printf("# %s: %s\n", k, res.Notes[k])
	}
	fmt.Printf("%s\n", resultLine(res))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// buildCommit returns the revision the binary was built from, when the
// build ran inside a git checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
