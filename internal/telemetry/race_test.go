package telemetry

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestTelemetryHammer races the registry the way a live daemon does:
// writer goroutines increment counters, move gauges, and observe
// histograms flat out while a scraper renders /v1/metricz in a loop.
// Every scrape must parse, and the counter values read across scrapes
// must be monotonic — a torn read or a lost update would show up as a
// malformed line or a counter going backward. CI re-runs this under the
// race detector with -count=2.
func TestTelemetryHammer(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const series = 4 // writers share series pairwise: registration races too
	const perWriter = 5000

	// Pre-register one series so the very first scrape has content; the
	// writers still race registration of the rest against the scraper.
	r.Counter("hammer_ops_total", "ops", "writer", "0")

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			lbl := strconv.Itoa(w % series)
			c := r.Counter("hammer_ops_total", "ops", "writer", lbl)
			g := r.Gauge("hammer_depth", "depth", "writer", lbl)
			h := r.Histogram("hammer_lat_seconds", "lat", nil, "writer", lbl)
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}

	// Scraper: render and validate until every writer finished, tracking
	// per-series counter monotonicity across scrapes.
	stop := make(chan struct{})
	go func() { writerWG.Wait(); close(stop) }()
	scrapes := 0
	last := make(map[string]uint64)
	for looping := true; looping; {
		select {
		case <-stop:
			looping = false // one final scrape below observes the end state
		default:
		}
		var sb strings.Builder
		if _, err := r.WriteTo(&sb); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		out := sb.String()
		checkExposition(t, out)
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "hammer_ops_total{") {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed counter line %q", line)
			}
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("counter %s value %q not an integer", name, val)
			}
			if v < last[name] {
				t.Fatalf("counter %s went backward: %d -> %d", name, last[name], v)
			}
			last[name] = v
		}
		scrapes++
	}

	if scrapes < 2 {
		t.Fatalf("only %d scrapes completed", scrapes)
	}
	var sum uint64
	for i := 0; i < series; i++ {
		sum += r.Counter("hammer_ops_total", "ops", "writer", strconv.Itoa(i)).Value()
	}
	if want := uint64(writers * perWriter); sum != want {
		t.Fatalf("lost updates: %d increments recorded, want %d", sum, want)
	}
	if h := r.Histogram("hammer_lat_seconds", "lat", nil, "writer", "0"); h.Count() == 0 {
		t.Fatal("histogram recorded nothing")
	}
}
