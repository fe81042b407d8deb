package trace

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeRecording(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartSpan(SpanContext{}, "epoch", Int("epoch", 7))
	if !root.Context().Valid() {
		t.Fatal("root has invalid context")
	}
	if got := tr.CurrentTrace(); got != root.Context().TraceID {
		t.Fatalf("CurrentTrace = %x, want root trace %x", got, root.Context().TraceID)
	}
	child := tr.StartSpan(root.Context(), "reverify")
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child not in root's trace")
	}
	child.Finish()
	child.Finish() // double-finish is a no-op
	root.FinishErr(nil)
	if got := tr.CurrentTrace(); got != 0 {
		t.Fatalf("CurrentTrace = %x after root finish, want 0", got)
	}

	spans := tr.TraceSpans(root.Context().TraceID)
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// TraceSpans is start-ordered: root started first.
	if spans[0].Name != "epoch" || spans[0].Parent != 0 {
		t.Fatalf("root record wrong: %+v", spans[0])
	}
	if spans[1].Parent != root.Context().SpanID {
		t.Fatalf("child parent = %x, want %x", spans[1].Parent, root.Context().SpanID)
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0] != Int("epoch", 7) {
		t.Fatalf("root attrs wrong: %+v", spans[0].Attrs)
	}
}

func TestDisabledIsNil(t *testing.T) {
	tr := NewTracer(64)
	tr.SetEnabled(false)
	sp := tr.StartSpan(SpanContext{}, "epoch")
	if sp != nil {
		t.Fatal("disabled tracer returned a span")
	}
	// Every method must be nil-safe.
	sp.SetAttr(Int("x", 1))
	sp.FinishErr(io.EOF)
	sp.Finish()
	if sp.Context().Valid() {
		t.Fatal("nil span has valid context")
	}
	if c := tr.Collect(123); c != nil {
		t.Fatal("disabled tracer returned a collector")
	}
	var c *Collector
	if got := c.Stop(); got != nil {
		t.Fatal("nil collector returned spans")
	}
	tr.SetEnabled(true)
	if tr.StartSpan(SpanContext{}, "epoch") == nil {
		t.Fatal("re-enabled tracer returned nil")
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		tr.StartSpan(SpanContext{}, "s").Finish()
	}
	got := tr.Snapshot()
	if len(got) != 16 {
		t.Fatalf("ring holds %d spans, want 16", len(got))
	}
	// Oldest-first ordering across the wrap point.
	for i := 1; i < len(got); i++ {
		if got[i].Start.Before(got[i-1].Start) {
			t.Fatal("snapshot not oldest-first after wrap")
		}
	}
}

func TestCollector(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartSpan(SpanContext{}, "epoch")
	col := tr.Collect(root.Context().TraceID)
	other := tr.StartSpan(SpanContext{}, "unrelated")
	other.Finish()
	tr.StartSpan(root.Context(), "phase").Finish()
	root.Finish()
	recs := col.Stop()
	if len(recs) != 2 {
		t.Fatalf("collected %d spans, want 2 (phase+root)", len(recs))
	}
	for _, r := range recs {
		if r.TraceID != root.Context().TraceID {
			t.Fatalf("collected foreign span %+v", r)
		}
	}
	// After Stop, recording continues but nothing accumulates.
	tr.StartSpan(root.Context(), "late").Finish()
	if got := col.Stop(); got != nil {
		t.Fatalf("stopped collector captured %d spans", len(got))
	}
}

// TestRecord: a caller-timed span is stored with exactly the parent,
// start and duration it was given, and reaches an active collector like
// a finished span; a disabled tracer or a zero parent records nothing.
func TestRecord(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartSpan(SpanContext{}, "epoch")
	start := time.Now()
	const d = 1234567 * time.Nanosecond

	tr.Record(SpanContext{}, "orphan", start, d)
	tr.SetEnabled(false)
	tr.Record(root.Context(), "dark", start, d)
	tr.SetEnabled(true)
	if n := len(tr.Snapshot()); n != 0 {
		t.Fatalf("a zero parent or a disabled tracer recorded %d spans", n)
	}

	tr.SetProcess("worker-a")
	col := tr.Collect(root.Context().TraceID)
	tr.Record(root.Context(), "reverify", start, d, Int("probes", 9))
	recs := col.Stop()
	got := tr.Snapshot()
	if len(got) != 1 || len(recs) != 1 {
		t.Fatalf("recorded %d spans and collected %d; want 1 each", len(got), len(recs))
	}
	rec := got[0]
	if rec.TraceID != root.Context().TraceID || rec.Parent != root.Context().SpanID ||
		rec.SpanID == 0 || rec.SpanID == root.Context().SpanID {
		t.Errorf("span ids (trace %x, span %x, parent %x); want a new child of %+v",
			rec.TraceID, rec.SpanID, rec.Parent, root.Context())
	}
	if rec.Name != "reverify" || rec.Proc != "worker-a" || rec.Start != start || rec.Duration != d ||
		len(rec.Attrs) != 1 || rec.Attrs[0] != Int("probes", 9) {
		t.Errorf("recorded %+v; want reverify on worker-a from the given start, lasting %v, probes=9", rec, d)
	}
	if recs[0].SpanID != rec.SpanID {
		t.Errorf("collector got span %x; want the recorded %x", recs[0].SpanID, rec.SpanID)
	}
	root.Finish()
}

// TestCollectorStopWhileRecording: two shard sessions of one worker
// collect the same epoch trace, and one stops while the other's spans
// are still finishing. Stop used to shift the shared collector slice in
// place under a span's lock-free walk of it (run under -race).
func TestCollectorStopWhileRecording(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartSpan(SpanContext{}, "epoch")
	keep := tr.Collect(root.Context().TraceID)
	defer keep.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			tr.StartSpan(root.Context(), "phase").Finish()
		}
	}()
	for i := 0; i < 2000; i++ {
		tr.Collect(root.Context().TraceID).Stop()
	}
	<-done
}

func TestWireSpansRoundtrip(t *testing.T) {
	start := time.Unix(1700000000, 123456789)
	in := []SpanRecord{
		{TraceID: 9, SpanID: 1, Name: "epoch", Proc: "worker:w1",
			Start: start, Duration: 250 * time.Millisecond,
			Attrs: []Attr{String("epoch", "3"), String("shard", "1")}},
		{TraceID: 9, SpanID: 2, Parent: 1, Name: "reverify",
			Start: start.Add(time.Millisecond), Duration: time.Millisecond},
	}
	out, err := DecodeSpans(EncodeSpans(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("decoded %d spans", len(out))
	}
	if !out[0].Start.Equal(in[0].Start) || out[0].Duration != in[0].Duration {
		t.Fatalf("timing mangled: %+v", out[0])
	}
	if out[0].Name != "epoch" || out[0].Proc != "worker:w1" || len(out[0].Attrs) != 2 {
		t.Fatalf("fields mangled: %+v", out[0])
	}
	if out[1].Parent != 1 {
		t.Fatalf("parent mangled: %+v", out[1])
	}
	if out, err := DecodeSpans(EncodeSpans(nil)); err != nil || len(out) != 0 {
		t.Fatalf("empty batch decoded to (%v, %v); want no spans", out, err)
	}
}

func TestWireSpansCorrupt(t *testing.T) {
	good := EncodeSpans([]SpanRecord{{TraceID: 1, SpanID: 2, Name: "x"}})
	for _, tc := range [][]byte{
		good[:1],
		good[:len(good)-1],
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // absurd count
	} {
		if _, err := DecodeSpans(tc); err == nil {
			t.Fatalf("corrupt batch %x decoded without error", tc)
		}
	}
}

func TestImportStitches(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartSpan(SpanContext{}, "epoch")
	rootCtx := root.Context()
	root.Finish()
	remote := []SpanRecord{{
		TraceID: rootCtx.TraceID, SpanID: 77, Parent: rootCtx.SpanID,
		Name: "shard-epoch", Proc: "worker:w2", Start: time.Now(),
	}}
	tr.Import(remote)
	spans := tr.TraceSpans(rootCtx.TraceID)
	if len(spans) != 2 {
		t.Fatalf("stitched trace has %d spans, want 2", len(spans))
	}
	sums := tr.Summaries(0)
	if len(sums) != 1 || sums[0].Spans != 2 {
		t.Fatalf("summaries: %+v", sums)
	}
}

func TestTracezHandler(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartSpan(SpanContext{}, "epoch", Int("epoch", 1))
	tr.StartSpan(root.Context(), "reverify").Finish()
	root.Finish()
	tid := TraceID(root.Context().TraceID)

	h := tr.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tracez", nil))
	var list struct {
		Traces []tracezSummary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].Trace != tid || list.Traces[0].Spans != 2 {
		t.Fatalf("listing: %+v", list.Traces)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tracez?trace="+tid, nil))
	var tree struct {
		Trace string        `json:"trace"`
		Spans []*tracezNode `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	if len(tree.Spans) != 1 || tree.Spans[0].Name != "epoch" ||
		len(tree.Spans[0].Children) != 1 || tree.Spans[0].Children[0].Name != "reverify" {
		t.Fatalf("tree: %+v", tree.Spans)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tracez?trace="+tid+"&format=text", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "epoch") || !strings.Contains(body, "reverify") ||
		!strings.Contains(body, "#") {
		t.Fatalf("waterfall missing content:\n%s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tracez?trace=ffffffffffffffff", nil))
	if rec.Code != 404 {
		t.Fatalf("missing trace: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tracez", nil))
	if rec.Code != 405 {
		t.Fatalf("POST: status %d", rec.Code)
	}
}

func TestDebugzHandler(t *testing.T) {
	tr := NewTracer(64)
	tr.StartSpan(SpanContext{}, "epoch").Finish()
	h := DebugzHandler(DebugzOptions{
		Tracer:      tr,
		Metrics:     func(w io.Writer) error { _, err := io.WriteString(w, "gps_up 1\n"); return err },
		Cluster:     func() (any, bool) { return map[string]string{"epoch": "3"}, true },
		HealthState: func() (string, bool) { return "ok", true },
		ExtraBuild:  map[string]string{"mode": "test"},
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debugz", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sections := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("non-JSON line %q: %v", line, err)
		}
		sections[obj["section"].(string)]++
	}
	for _, want := range []string{"build", "health", "metrics", "cluster", "trace"} {
		if sections[want] == 0 {
			t.Fatalf("bundle missing section %q (got %v)", want, sections)
		}
	}
}

// captureStd runs fn with os.Stdout and os.Stderr swapped for pipes and
// returns what each received: the logger reads both at emit time.
func captureStd(t *testing.T, fn func()) (out, errw string) {
	t.Helper()
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	prevOut, prevErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outW, errW
	defer func() { os.Stdout, os.Stderr = prevOut, prevErr }()
	fn()
	outW.Close()
	errW.Close()
	ob, _ := io.ReadAll(outR)
	eb, _ := io.ReadAll(errR)
	return string(ob), string(eb)
}

func TestLoggerRouting(t *testing.T) {
	l := NewLogger("gpsd")
	out, errw := captureStd(t, func() {
		l.Infof("epoch %d done", 3)
		l.Warnf("deprecated flag")
		l.Errorf("boom")
	})

	if !strings.Contains(out, "level=info") ||
		!strings.Contains(out, `msg="epoch 3 done"`) ||
		!strings.Contains(out, "component=gpsd") {
		t.Fatalf("stdout line wrong: %q", out)
	}
	if strings.Contains(out, "deprecated") || strings.Contains(out, "boom") {
		t.Fatalf("warn/error leaked to stdout: %q", out)
	}
	if !strings.Contains(errw, "level=warn") || !strings.Contains(errw, "level=error") {
		t.Fatalf("stderr lines wrong: %q", errw)
	}
}

func TestLoggerTraceField(t *testing.T) {
	l := NewLogger("gpsd")
	var sp *Span
	out, _ := captureStd(t, func() {
		sp = Default.StartSpan(SpanContext{}, "epoch")
		l.Infof("during epoch")
		sp.Finish()
		l.Infof("after epoch")
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	want := "trace=" + TraceID(sp.Context().TraceID)
	if !strings.Contains(lines[0], want) {
		t.Fatalf("in-flight line missing %s: %q", want, lines[0])
	}
	if strings.Contains(lines[1], "trace=") {
		t.Fatalf("post-epoch line still has trace field: %q", lines[1])
	}
}

func TestLoggerJSON(t *testing.T) {
	SetLogJSON(true)
	defer SetLogJSON(false)
	l := NewLogger("cluster")
	out, _ := captureStd(t, func() {
		l.Log(LevelInfo, "migrated", String("shard", "2"), String("to", "w4"),
			Int("moved", 3), Int64("bytes", 1<<40), Float("sec", 0.25))
	})
	var obj map[string]any
	if err := json.Unmarshal([]byte(out), &obj); err != nil {
		t.Fatalf("not JSON: %q (%v)", out, err)
	}
	if obj["level"] != "info" || obj["component"] != "cluster" ||
		obj["msg"] != "migrated" || obj["shard"] != "2" || obj["to"] != "w4" {
		t.Fatalf("JSON fields wrong: %v", obj)
	}
	// Only the numeric helpers' values are JSON numbers: a string that
	// happens to read as a number stays a string.
	if obj["moved"] != float64(3) || obj["bytes"] != float64(1<<40) || obj["sec"] != 0.25 {
		t.Fatalf("numeric fields not JSON numbers: %v", obj)
	}
	if _, ok := obj["ts"]; !ok {
		t.Fatal("missing ts")
	}
}
