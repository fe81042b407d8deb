package serve

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"gps/internal/telemetry"
)

// Serving-layer metrics. The publisher is a zero-value type with no
// constructor, so its gauges are package-level: one process serves one
// inventory, published through however many Publisher values exist.
var (
	snapshotEpoch = telemetry.Default.Gauge("gps_snapshot_epoch",
		"epoch of the currently served inventory snapshot")
	snapshotPublishes = telemetry.Default.Counter("gps_snapshot_publishes_total",
		"inventory snapshots accepted for serving")
	// lastPublishNanos feeds the age gauge below; 0 = nothing published.
	lastPublishNanos atomic.Int64

	feedHeadEpoch = telemetry.Default.Gauge("gps_feed_head_epoch",
		"latest epoch committed to the change feed (-1 before the first)")
	feedHistoryDepth = telemetry.Default.Gauge("gps_feed_history_depth",
		"epoch deltas currently retained by the change feed")

	replicaLag = telemetry.Default.Gauge("gps_replica_lag_epochs",
		"epochs this replica trails its upstream origin")
	replicaDeltasApplied = telemetry.Default.Counter("gps_replica_deltas_applied_total",
		"epoch deltas applied onto this replica's inventory")
	replicaBootstraps = telemetry.Default.Counter("gps_replica_bootstraps_total",
		"full-snapshot bootstraps this replica performed")
	replicaReconnects = telemetry.Default.Counter("gps_replica_reconnects_total",
		"times this replica re-dialed its upstream after a feed failure")

	watchSessions = telemetry.Default.Gauge("gps_watch_sessions",
		"GET /v1/watch streams currently connected")
	watchEventsSent = telemetry.Default.Counter("gps_watch_events_total",
		"events pushed to /v1/watch consumers", "event", "delta")
	watchSnapshotsSent = telemetry.Default.Counter("gps_watch_events_total",
		"events pushed to /v1/watch consumers", "event", "snapshot")
)

func init() {
	telemetry.Default.GaugeFunc("gps_snapshot_age_seconds",
		"seconds since the served snapshot was published (-1 before the first publish)",
		func() float64 {
			ns := lastPublishNanos.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
}

// httpBuckets trims the default buckets to the sub-second range a local
// snapshot read actually spans.
var httpBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// endpointMetrics is one route's pre-registered handles. The common
// response codes are pre-registered so the per-request path is purely
// atomic; an uncommon code falls back to a registry lookup.
type endpointMetrics struct {
	latency  *telemetry.Histogram
	byCode   map[int]*telemetry.Counter
	endpoint string
}

func newEndpointMetrics(endpoint string) *endpointMetrics {
	r := telemetry.Default
	m := &endpointMetrics{
		latency: r.Histogram("gps_http_request_seconds",
			"inventory API request latency", httpBuckets, "endpoint", endpoint),
		byCode:   make(map[int]*telemetry.Counter),
		endpoint: endpoint,
	}
	for _, code := range []int{200, 304, 400, 404, 405, 503} {
		m.byCode[code] = m.codeCounter(code)
	}
	return m
}

func (m *endpointMetrics) codeCounter(code int) *telemetry.Counter {
	// The common codes are pre-registered by newEndpointMetrics; this
	// re-enters the registry only for an uncommon status code, a
	// documented cold-path fallback (see endpointMetrics).
	//gpslint:ignore spanfinish cold-path fallback for uncommon status codes; common codes are pre-registered in newEndpointMetrics
	return telemetry.Default.Counter("gps_http_responses_total",
		"inventory API responses by endpoint and status code",
		"endpoint", m.endpoint, "code", strconv.Itoa(code))
}

// statusRecorder captures the response code written by a handler.
// Default 200: Write without WriteHeader implies it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush/SetWriteDeadline — the watch stream needs both.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a route handler with latency and response-code
// accounting: the histogram and the counters are the record of a request.
// Requests start no trace spans — a root span per request would claim the
// logger's current-trace slot from the epoch in flight and push finished
// epochs out of the flight recorder within a fraction of a second of
// traffic.
func instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	m := newEndpointMetrics(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		m.latency.Observe(time.Since(start).Seconds())
		c, ok := m.byCode[rec.code]
		if !ok {
			c = m.codeCounter(rec.code)
		}
		c.Inc()
	}
}
