package telemetry

import (
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_ops_total", "ops", "kind", "read")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registering the identical metric returns the same series.
	if r.Counter("t_ops_total", "ops", "kind", "read").Value() != 5 {
		t.Fatal("re-registration did not return the existing series")
	}
	// A different label value is a different series.
	if r.Counter("t_ops_total", "ops", "kind", "write").Value() != 0 {
		t.Fatal("distinct label value shares state")
	}

	g := r.Gauge("t_depth", "depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	r.GaugeFunc("t_now", "now", func() float64 { return 42 })
	var sb strings.Builder
	r.WriteTo(&sb)
	if !strings.Contains(sb.String(), "t_now 42\n") {
		t.Fatalf("GaugeFunc not evaluated at scrape:\n%s", sb.String())
	}
}

func TestRegistrationConflictsPanic(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"kind", func(r *Registry) { r.Counter("t_x", ""); r.Gauge("t_x", "") }},
		{"labels", func(r *Registry) { r.Counter("t_x", "", "a", "1"); r.Counter("t_x", "", "b", "1") }},
		{"buckets", func(r *Registry) {
			r.Histogram("t_h", "", []float64{1, 2})
			r.Histogram("t_h", "", []float64{1, 3})
		}},
		{"odd-labels", func(r *Registry) { r.Counter("t_x", "", "a") }},
		{"bad-name", func(r *Registry) { r.Counter("9bad", "") }},
		{"bad-label-name", func(r *Registry) { r.Counter("t_x", "", "bad-label", "v") }},
		{"unsorted-buckets", func(r *Registry) { r.Histogram("t_h", "", []float64{2, 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("conflicting registration did not panic")
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_lat_seconds", "latency", []float64{0.01, 0.1, 1, 10})
	if h.P50() != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 90 fast, 9 medium, 1 slow: p50 in the first bucket, p99 in the third.
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.05)
	}
	h.Observe(5)
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got := math.Float64frombits(h.m.sumBits.Load()); math.Abs(got-(90*0.005+9*0.05+5)) > 1e-9 {
		t.Fatalf("sum = %v", got)
	}
	if p := h.P50(); p <= 0 || p > 0.01 {
		t.Fatalf("p50 = %v, want within first bucket (0, 0.01]", p)
	}
	// Rank 99 of 100 is the last medium sample: second bucket.
	if p := h.P99(); p <= 0.01 || p > 0.1 {
		t.Fatalf("p99 = %v, want within second bucket (0.01, 0.1]", p)
	}
	// Rank 99.5 is the slow outlier: fourth bucket.
	if p := h.Quantile(0.995); p <= 1 || p > 10 {
		t.Fatalf("q99.5 = %v, want within (1, 10]", p)
	}
	// An observation past the largest bound lands in +Inf and clamps the
	// top quantile to the largest finite bound.
	h2 := r.Histogram("t_lat2_seconds", "latency", []float64{1})
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 1 {
		t.Fatalf("+Inf-bucket quantile = %v, want clamp to 1", got)
	}
}

func TestSetEnabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_ops_total", "")
	h := r.Histogram("t_h_seconds", "", nil)
	r.SetEnabled(false)
	c.Inc()
	h.Observe(1)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("disabled registry still recorded")
	}
	r.SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("re-enabled registry did not record")
	}
}

// metricLine matches one sample line of the text exposition format.
var metricLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// checkExposition asserts every line of a scrape is a comment or a
// well-formed sample. Shared with the race hammer.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	if body == "" {
		t.Fatal("empty exposition")
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_reqs_total", "requests served", "code", "200").Add(7)
	r.Counter("t_reqs_total", "requests served", "code", "304").Add(3)
	r.Gauge("t_epoch", "current epoch").Set(12)
	h := r.Histogram("t_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Gauge("t_weird", "label escaping", "path", "a\"b\\c\nd").Set(1)

	var sb strings.Builder
	r.WriteTo(&sb)
	out := sb.String()
	checkExposition(t, out)

	for _, want := range []string{
		"# TYPE t_reqs_total counter",
		`t_reqs_total{code="200"} 7`,
		`t_reqs_total{code="304"} 3`,
		"# TYPE t_epoch gauge",
		"t_epoch 12",
		"# TYPE t_lat_seconds histogram",
		`t_lat_seconds_bucket{le="0.1"} 1`,
		`t_lat_seconds_bucket{le="1"} 2`,
		`t_lat_seconds_bucket{le="+Inf"} 3`,
		"t_lat_seconds_sum 5.55",
		"t_lat_seconds_count 3",
		`t_weird{path="a\"b\\c\nd"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must be name-sorted for deterministic scrapes.
	if strings.Index(out, "t_epoch") > strings.Index(out, "t_lat_seconds") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_ok_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q", ct)
	}
	post, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Fatalf("POST status %d, want 405", post.StatusCode)
	}
}
