// Package telemetry is the runtime metrics substrate every long-lived
// GPS process reports through: a dependency-free registry of atomic
// counters, gauges and fixed-bucket latency histograms, exposed in
// Prometheus text format on /v1/metricz.
//
// The package exists because the paper's continuous-scanning claim
// (§5.5, §6) is an operations claim: GPS only beats exhaustive scanning
// if an operator can watch epoch latency, the re-verify/discover budget
// split, and per-shard skew while the daemon runs for weeks. The
// evaluation metrics (internal/metrics) answer "is the inventory good?";
// this package answers "is the daemon healthy?" — different consumers,
// different lifetimes, so they are different packages.
//
// Design rules, in priority order:
//
//   - Hot paths are lock-free. Inc/Add/Set/Observe touch only atomics;
//     the registry mutex is taken by registration and scraping, never by
//     an instrumented operation. Instrument sites register once at
//     construction and hold the returned handles.
//   - Registration failures panic. A name collision with a different
//     metric type or label schema is a programming error that must
//     surface at init, not per-op: handing back an error would force
//     every Inc() behind an if.
//   - Re-registration of an identical metric returns the existing one,
//     so per-shard instruments can be built by every coordinator or test
//     in a process without coordination.
//
// Metric identity follows the Prometheus model: a name plus an ordered
// set of label key/value pairs. Labels are passed as alternating
// key, value strings: Counter("gps_rpc_frames_total", help, "side",
// "coordinator", "dir", "sent").
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric types a family can hold.
type Kind uint8

// Metric kinds, in exposition order.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// DefBuckets is the default latency histogram layout: exponential-ish
// upper bounds in seconds from 1ms to 2 minutes, matching the spread
// between a cached query (<1ms) and a budgeted shard epoch (seconds to
// minutes). The +Inf bucket is implicit.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Registry holds one process's metric families. The zero value is not
// usable; call NewRegistry (or use Default).
type Registry struct {
	disabled atomic.Bool

	mu       sync.Mutex
	families map[string]*family
}

// family groups every labeled instance of one metric name.
type family struct {
	name      string
	help      string
	kind      Kind
	labelKeys []string
	buckets   []float64 // histograms only; frozen at first registration

	mu        sync.Mutex // instance map only; hot paths never touch it
	instances map[string]*metric
}

// metric is one (name, labels) series.
type metric struct {
	labelVals []string

	// counter / gauge state. Counters count in u64; gauges store
	// math.Float64bits. Exactly one representation is live per kind.
	count atomic.Uint64
	bits  atomic.Uint64

	// gaugeFn, when set, is evaluated at scrape time instead of bits.
	gaugeFn func() float64

	// histogram state: bucketN[i] counts observations <= buckets[i],
	// non-cumulative; the last slot is the +Inf bucket.
	bucketN []atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// Default is the process-wide registry every instrumented GPS subsystem
// reports to and /v1/metricz serves.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// SetEnabled turns the registry's hot-path updates on or off. Disabled,
// every Inc/Add/Set/Observe is a single atomic load and return — the
// knob exists so BenchmarkTelemetryOverhead can measure instrumentation
// cost against the same binary, and so an embedder can run dark.
// Registration and scraping are unaffected.
func (r *Registry) SetEnabled(on bool) { r.disabled.Store(!on) }

// on reports whether hot-path updates apply.
func (r *Registry) on() bool { return !r.disabled.Load() }

// validName matches the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// splitLabels validates and splits alternating key/value labels.
func splitLabels(name string, labels []string) (keys, vals []string) {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: metric %s: odd label list %q", name, labels))
	}
	for i := 0; i < len(labels); i += 2 {
		if !validName(labels[i]) {
			panic(fmt.Sprintf("telemetry: metric %s: bad label name %q", name, labels[i]))
		}
		keys = append(keys, labels[i])
		vals = append(vals, labels[i+1])
	}
	return keys, vals
}

// register resolves (name, labels) to its metric, creating family and
// instance as needed. Any structural conflict — kind, label schema, or
// histogram buckets differing from the existing family — panics: these
// are init-time programming errors, and the policy of this package is
// that they never reach a per-op code path.
func (r *Registry) register(kind Kind, name, help string, buckets []float64, labels []string) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: bad metric name %q", name))
	}
	keys, vals := splitLabels(name, labels)

	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			labelKeys: keys, buckets: buckets,
			instances: make(map[string]*metric),
		}
		r.families[name] = f
	}
	r.mu.Unlock()

	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s, is %s", name, kind, f.kind))
	}
	if strings.Join(f.labelKeys, ",") != strings.Join(keys, ",") {
		panic(fmt.Sprintf("telemetry: metric %s re-registered with labels %v, has %v", name, keys, f.labelKeys))
	}
	if kind == KindHistogram && !equalF64(f.buckets, buckets) {
		panic(fmt.Sprintf("telemetry: histogram %s re-registered with buckets %v, has %v", name, buckets, f.buckets))
	}

	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.instances[key]
	if !ok {
		m = &metric{labelVals: vals}
		if kind == KindHistogram {
			m.bucketN = make([]atomic.Uint64, len(buckets)+1)
		}
		f.instances[key] = m
	}
	return m
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- Counter -----------------------------------------------------------------

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use and lock-free.
type Counter struct {
	r *Registry
	m *metric
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{r: r, m: r.register(KindCounter, name, help, nil, labels)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c.r.on() {
		c.m.count.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.m.count.Load() }

// --- Gauge -------------------------------------------------------------------

// Gauge is a value that goes up and down. All methods are safe for
// concurrent use and lock-free.
type Gauge struct {
	r *Registry
	m *metric
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return &Gauge{r: r, m: r.register(KindGauge, name, help, nil, labels)}
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for values that are cheaper to read on demand than to track
// (heap size, snapshot age). Re-registering replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	m := r.register(KindGauge, name, help, nil, labels)
	m.gaugeFn = fn
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g.r.on() {
		g.m.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (which may be negative) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if !g.r.on() {
		return
	}
	for {
		old := g.m.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.m.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.m.bits.Load()) }

// --- Histogram ---------------------------------------------------------------

// Histogram accumulates observations into fixed buckets chosen at
// registration. Observe is lock-free; quantiles are estimated from the
// bucket layout (exact enough for p50/p99 dashboards, not for billing).
type Histogram struct {
	r       *Registry
	m       *metric
	buckets []float64
}

// Histogram registers (or fetches) a histogram. Bucket upper bounds
// must be strictly ascending; nil selects DefBuckets. The +Inf bucket
// is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s buckets not ascending: %v", name, buckets))
		}
	}
	return &Histogram{r: r, m: r.register(KindHistogram, name, help, buckets, labels), buckets: buckets}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if !h.r.on() {
		return
	}
	// Linear scan: bucket counts are small (len(DefBuckets) == 16) and
	// the loop is branch-predictable; a binary search buys nothing here.
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.m.bucketN[i].Add(1)
	for {
		old := h.m.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.m.sumBits.CompareAndSwap(old, nv) {
			break
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.m.bucketN {
		n += h.m.bucketN[i].Load()
	}
	return n
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket holding the target rank, the same estimate
// Prometheus's histogram_quantile computes. Observations in the +Inf
// bucket clamp to the largest finite bound. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.m.bucketN))
	var total uint64
	for i := range h.m.bucketN {
		counts[i] = h.m.bucketN[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(h.buckets) {
			// +Inf bucket: the largest finite bound is the best estimate.
			return h.buckets[len(h.buckets)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.buckets[i-1]
		}
		frac := 1.0
		if c > 0 {
			frac = (rank - float64(cum-c)) / float64(c)
		}
		return lo + (h.buckets[i]-lo)*frac
	}
	return h.buckets[len(h.buckets)-1]
}

// P50 and P99 are the dashboard quantiles the epoch summary logs.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// sortedFamilies snapshots the family list in name order for exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedInstances snapshots one family's instances in label order.
func (f *family) sortedInstances() []*metric {
	f.mu.Lock()
	out := make([]*metric, 0, len(f.instances))
	for _, m := range f.instances {
		out = append(out, m)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].labelVals, "\x00") < strings.Join(out[j].labelVals, "\x00")
	})
	return out
}
