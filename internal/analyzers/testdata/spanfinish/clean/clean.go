// Package fixture is the spanfinish known-clean golden package: every
// span reaches a finisher or escapes, and all telemetry registration
// happens at init/constructor scope.
package fixture

import (
	"gps/internal/telemetry"
	"gps/internal/trace"
)

// Package-level var initializers run exactly once, before main: the
// registry's conflicts-panic-at-startup promise holds.
var hist = telemetry.Default.Histogram("fixture_clean_seconds", "fixture histogram", nil)

var lateGauge *telemetry.Gauge

func init() {
	lateGauge = telemetry.Default.Gauge("fixture_clean_gauge", "fixture gauge")
}

type metrics struct{ reqs *telemetry.Counter }

// newMetrics is constructor scope: registration here is sanctioned.
func newMetrics() *metrics {
	return &metrics{reqs: telemetry.Default.Counter("fixture_clean_reqs", "fixture counter")}
}

// timed retires its span with the canonical deferred Finish.
func timed(parent trace.SpanContext) {
	sp := trace.StartSpan(parent, "timed")
	defer sp.Finish()
}

// timedErr retires its span explicitly through FinishErr.
func timedErr(parent trace.SpanContext) error {
	sp := trace.StartSpan(parent, "timed-err")
	err := work()
	sp.FinishErr(err)
	return err
}

// beginNamed returns the span: the caller owns finishing it.
func beginNamed(parent trace.SpanContext) *trace.Span {
	sp := trace.StartSpan(parent, "begin")
	sp.SetAttr()
	return sp
}

// handoff passes the span on: the consumer owns finishing it.
func handoff(parent trace.SpanContext) {
	sp := trace.StartSpan(parent, "handoff")
	consume(sp)
}

func consume(sp *trace.Span) { sp.Finish() }

func work() error { return nil }
