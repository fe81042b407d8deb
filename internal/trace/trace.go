// Package trace is a dependency-free distributed tracing layer in the
// style of internal/telemetry: spans are cheap to create, recorded into
// a bounded per-process ring buffer (a flight recorder, not an
// exporter), and stitched across processes by propagating a (trace id,
// parent span id) pair over the GPST wire. The recorder answers "where
// did the last epoch's wall-clock go" without any collector
// infrastructure: scrape /v1/tracez and read the waterfall.
//
// Design constraints, in priority order:
//
//  1. Disabled means free. SetEnabled(false) must reduce every
//     instrumentation site to one atomic load and a nil return;
//     finished-span bookkeeping happens only when tracing is on.
//  2. Bounded memory. The ring keeps the most recent spans and evicts
//     the oldest; a trace older than the ring simply falls out.
//  3. No dependencies. Stdlib only, same as internal/telemetry.
package trace

import (
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext identifies a position in a trace tree: the trace it
// belongs to and the span that new children should parent to. The zero
// value is "no context" (Valid() == false); starting a span under it
// begins a new trace.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real trace.
func (c SpanContext) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// Attr is one key=value annotation on a span or a log line. Values are
// strings; helpers below convert the common cases. The numeric helpers
// mark their Attr so the logger's JSON mode writes the value as a JSON
// number; spans, their wire codec and /v1/tracez ignore the mark.
type Attr struct {
	Key   string
	Value string
	num   bool
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{k, strconv.Itoa(v), true} }

// Int64 builds an int64 attribute.
func Int64(k string, v int64) Attr { return Attr{k, strconv.FormatInt(v, 10), true} }

// Float builds a float attribute in the shortest form that reads back
// to v.
func Float(k string, v float64) Attr { return Attr{k, strconv.FormatFloat(v, 'g', -1, 64), true} }

// SpanRecord is a finished span as stored in the flight recorder and
// as shipped between processes. Proc names the process that recorded
// the span (set via SetProcess) so a stitched trace shows which side
// of the wire each span ran on.
type SpanRecord struct {
	TraceID  uint64
	SpanID   uint64
	Parent   uint64 // 0 for a root span
	Name     string
	Proc     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Span is an in-flight span. A nil *Span is a valid no-op (the
// disabled path returns nil), so instrumentation sites never need an
// enabled check of their own.
type Span struct {
	tr    *Tracer
	ctx   SpanContext
	par   uint64
	name  string
	start time.Time
	mu    sync.Mutex
	attrs []Attr
	done  bool
}

// Tracer owns the flight recorder: a fixed-capacity ring of finished
// spans plus the enabled flag and span-id generator. The package-level
// Default tracer is what all gps instrumentation uses; independent
// tracers exist for tests.
type Tracer struct {
	disabled atomic.Bool
	seq      atomic.Uint64 // id sequence, mixed through splitmix64
	seed     uint64
	current  atomic.Uint64 // trace id of the most recent local root

	mu    sync.Mutex
	ring  []SpanRecord // fixed capacity, next points at the eviction slot
	next  int
	count int // total spans ever recorded (ring occupancy = min(count, len))

	colMu      sync.Mutex
	collectors map[uint64][]*Collector
	collecting atomic.Int32 // fast-path guard around colMu

	proc atomic.Pointer[string]
}

// DefaultCapacity is the flight-recorder size for the Default tracer:
// large enough for hundreds of epochs of span trees, small enough that
// the recorder stays a few MB even with attribute-heavy spans.
const DefaultCapacity = 4096

// Default is the process-wide tracer used by all gps instrumentation.
var Default = NewTracer(DefaultCapacity)

// NewTracer builds a tracer whose ring holds up to capacity finished
// spans (minimum 16).
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	t := &Tracer{ring: make([]SpanRecord, 0, capacity)}
	// Seed the id generator so ids are unique across processes: the
	// wall clock and pid differ between any two gpsd processes a trace
	// can span, and splitmix64 diffuses them through every id.
	t.seed = splitmix64(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
	return t
}

// SetEnabled turns recording on or off. Disabled, StartSpan returns
// nil and every nil-span method is a no-op, so the marginal cost at an
// instrumentation site is one atomic load.
func (t *Tracer) SetEnabled(on bool) { t.disabled.Store(!on) }

// SetProcess labels spans recorded from now on with a process name
// (e.g. "worker:w3") so stitched traces show where each span ran.
func (t *Tracer) SetProcess(name string) { t.proc.Store(&name) }

// Process returns the current process label ("" if unset).
func (t *Tracer) Process() string {
	if p := t.proc.Load(); p != nil {
		return *p
	}
	return ""
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) newID() uint64 {
	id := splitmix64(t.seed ^ t.seq.Add(1))
	if id == 0 { // 0 is reserved for "absent"
		id = 1
	}
	return id
}

// StartSpan begins a span. With a valid parent context the span joins
// that trace as a child of parent.SpanID; with the zero context it
// starts a new trace and becomes its root. Returns nil when tracing is
// disabled — safe to use without checking.
func (t *Tracer) StartSpan(parent SpanContext, name string, attrs ...Attr) *Span {
	if t.disabled.Load() {
		return nil
	}
	s := &Span{
		tr:    t,
		name:  name,
		start: time.Now(),
		attrs: attrs,
	}
	if parent.Valid() {
		s.ctx = SpanContext{TraceID: parent.TraceID, SpanID: t.newID()}
		s.par = parent.SpanID
	} else {
		id := t.newID()
		s.ctx = SpanContext{TraceID: id, SpanID: id}
		t.current.Store(id)
	}
	return s
}

// CurrentTrace returns the trace id of the most recently started local
// root span, or 0. The structured logger uses it to join log lines to
// /v1/tracez; it is intentionally a single process-wide slot — gpsd
// runs one epoch loop, and "the trace of the epoch in flight" is the
// id a human wants on every log line emitted meanwhile.
func (t *Tracer) CurrentTrace() uint64 { return t.current.Load() }

// SetCurrentTrace overrides the logger-joined trace id; workers use it
// to adopt the coordinator's trace while serving an epoch RPC.
func (t *Tracer) SetCurrentTrace(id uint64) { t.current.Store(id) }

// Context returns the span's position for parenting children or for
// wire propagation. Zero context on a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// SetAttr adds an annotation to an in-flight span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// FinishErr finishes the span, tagging it with the error when err is
// non-nil.
func (s *Span) FinishErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetAttr(String("error", err.Error()))
	}
	s.Finish()
}

// Finish records the span into the flight recorder. Finishing twice is
// a no-op.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	attrs := s.attrs
	s.mu.Unlock()
	rec := SpanRecord{
		TraceID:  s.ctx.TraceID,
		SpanID:   s.ctx.SpanID,
		Parent:   s.par,
		Name:     s.name,
		Proc:     s.tr.Process(),
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    attrs,
	}
	s.tr.record(rec)
	// A finished local root releases the logger-joined trace id, but
	// only if no newer root has claimed the slot meanwhile.
	if s.par == 0 && s.ctx.TraceID == s.tr.current.Load() {
		s.tr.current.CompareAndSwap(s.ctx.TraceID, 0)
	}
}

// Record stores a finished child of parent that the caller timed
// itself: it began at start and lasted d. A site that has already read
// the clock for a duration records the span from that same reading
// rather than a second one. With tracing disabled or a zero parent it
// records nothing.
func (t *Tracer) Record(parent SpanContext, name string, start time.Time, d time.Duration, attrs ...Attr) {
	if t.disabled.Load() || !parent.Valid() {
		return
	}
	t.record(SpanRecord{
		TraceID:  parent.TraceID,
		SpanID:   t.newID(),
		Parent:   parent.SpanID,
		Name:     name,
		Proc:     t.Process(),
		Start:    start,
		Duration: d,
		Attrs:    attrs,
	})
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % len(t.ring)
	}
	t.count++
	t.mu.Unlock()
	if t.collecting.Load() > 0 {
		t.offerCollectors(rec)
	}
}

// Import splices span records from another process into this
// recorder — the coordinator calls it with the spans a worker shipped
// back on an epoch result, so the coordinator's /v1/tracez shows the
// stitched tree.
func (t *Tracer) Import(recs []SpanRecord) {
	if t.disabled.Load() {
		return
	}
	for _, r := range recs {
		t.record(r)
	}
}

// Reset discards all recorded spans (tests).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.next = 0
	t.count = 0
	t.mu.Unlock()
}

// Collector captures finished spans of one trace as they are recorded,
// independent of ring eviction. Workers use it to gather the spans of
// a remote-parented epoch so they can be shipped back on the result
// frame.
type Collector struct {
	tr    *Tracer
	trace uint64
	mu    sync.Mutex
	recs  []SpanRecord
}

// Collect begins capturing finished spans whose trace id matches.
// Returns nil when tracing is disabled. Always Stop() a collector.
func (t *Tracer) Collect(traceID uint64) *Collector {
	if t.disabled.Load() || traceID == 0 {
		return nil
	}
	c := &Collector{tr: t, trace: traceID}
	t.colMu.Lock()
	if t.collectors == nil {
		t.collectors = make(map[uint64][]*Collector)
	}
	t.collectors[traceID] = append(t.collectors[traceID], c)
	t.colMu.Unlock()
	t.collecting.Add(1)
	return c
}

func (t *Tracer) offerCollectors(rec SpanRecord) {
	t.colMu.Lock()
	cols := t.collectors[rec.TraceID]
	t.colMu.Unlock()
	for _, c := range cols {
		c.mu.Lock()
		c.recs = append(c.recs, rec)
		c.mu.Unlock()
	}
}

// Stop detaches the collector and returns the captured spans. Nil-safe.
func (c *Collector) Stop() []SpanRecord {
	if c == nil {
		return nil
	}
	t := c.tr
	t.colMu.Lock()
	cols := t.collectors[c.trace]
	for i, cc := range cols {
		if cc == c {
			// A fresh slice, not an in-place shift: offerCollectors walks
			// the old one after dropping colMu.
			cols = append(append([]*Collector(nil), cols[:i]...), cols[i+1:]...)
			break
		}
	}
	if len(cols) == 0 {
		delete(t.collectors, c.trace)
	} else {
		t.collectors[c.trace] = cols
	}
	t.colMu.Unlock()
	t.collecting.Add(-1)
	c.mu.Lock()
	recs := c.recs
	c.recs = nil
	c.mu.Unlock()
	return recs
}

// Snapshot returns every span currently in the ring, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.ring))
	if t.count > len(t.ring) { // ring has wrapped; t.next is oldest
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// TraceSummary describes one trace for the /v1/tracez listing.
type TraceSummary struct {
	TraceID  uint64
	Root     string // name of the root span ("" if the root was evicted)
	Proc     string
	Start    time.Time
	Duration time.Duration
	Spans    int
}

// Summaries groups the ring's spans by trace and returns the most
// recently started traces first, up to limit (0 = all).
func (t *Tracer) Summaries(limit int) []TraceSummary {
	byTrace := make(map[uint64]*TraceSummary)
	for _, r := range t.Snapshot() {
		s := byTrace[r.TraceID]
		if s == nil {
			s = &TraceSummary{TraceID: r.TraceID, Start: r.Start}
			byTrace[r.TraceID] = s
		}
		s.Spans++
		if r.Start.Before(s.Start) {
			s.Start = r.Start
		}
		if end := r.Start.Add(r.Duration); end.After(s.Start.Add(s.Duration)) {
			s.Duration = end.Sub(s.Start)
		}
		if r.Parent == 0 {
			s.Root = r.Name
			s.Proc = r.Proc
		}
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for _, s := range byTrace {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// TraceSpans returns every recorded span of one trace, in start order.
func (t *Tracer) TraceSpans(traceID uint64) []SpanRecord {
	var out []SpanRecord
	for _, r := range t.Snapshot() {
		if r.TraceID == traceID {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// StartSpan begins a span on the Default tracer.
func StartSpan(parent SpanContext, name string, attrs ...Attr) *Span {
	return Default.StartSpan(parent, name, attrs...)
}

// Record stores a caller-timed span on the Default tracer.
func Record(parent SpanContext, name string, start time.Time, d time.Duration, attrs ...Attr) {
	Default.Record(parent, name, start, d, attrs...)
}
