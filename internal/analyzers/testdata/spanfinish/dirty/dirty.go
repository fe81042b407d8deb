// Package fixture is the spanfinish known-dirty golden package: leaked
// spans and hot-path telemetry registration.
package fixture

import (
	"gps/internal/telemetry"
	"gps/internal/trace"
)

func discarded(parent trace.SpanContext) {
	trace.StartSpan(parent, "discarded") // want `span started and immediately discarded`
}

func blanked(parent trace.SpanContext) {
	_ = trace.StartSpan(parent, "blanked") // want `span assigned to _`
}

func leaked(parent trace.SpanContext) {
	sp := trace.StartSpan(parent, "leaked") // want `span sp is started but never finished on any path`
	sp.SetAttr()
}

// observe registers on every call: the registry lock on a hot path, and
// a conflict panic mid-serve instead of at startup.
func observe(n int) {
	g := telemetry.Default.Gauge("fixture_hot_gauge", "hot registration") // want `telemetry registration \(Registry.Gauge\) in observe`
	g.Set(float64(n))
}

func record() {
	telemetry.Default.Counter("fixture_hot_counter", "hot registration").Add(1) // want `telemetry registration \(Registry.Counter\) in record`
}
