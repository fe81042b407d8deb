package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"

	"gps/internal/serve"
	"gps/internal/telemetry"
	"gps/internal/trace"
)

// processHealth is the role-specific readiness the debug server's
// /v1/healthz reports. The mode runners fill it in after dispatch
// (setProcessHealth), so a worker with no query API still answers a
// structured readiness probe.
var processHealth struct {
	mu   sync.Mutex
	info serve.HealthInfo
}

// setProcessHealth mutates the debug server's readiness doc in place;
// safe from any goroutine.
func setProcessHealth(mutate func(*serve.HealthInfo)) {
	processHealth.mu.Lock()
	defer processHealth.mu.Unlock()
	mutate(&processHealth.info)
}

// workerShardsOwned is the transport session's owned-shard gauge,
// resolved once: processHealthInfo runs per /v1/healthz probe, which
// must not re-enter the telemetry registry.
var workerShardsOwned = telemetry.Default.Gauge("gps_worker_shards_owned",
	"shards currently assigned to this worker's session")

// processHealthInfo snapshots the readiness doc for a probe.
func processHealthInfo() serve.HealthInfo {
	processHealth.mu.Lock()
	defer processHealth.mu.Unlock()
	info := processHealth.info
	// The worker's owned-shard count lives in a gauge the transport
	// session maintains; read it live so migrations show up immediately.
	if info.Role == "worker" {
		info.ShardsOwned = int(workerShardsOwned.Value())
	}
	return info
}

// debugLog tags the debug side channel's lines.
var debugLog = trace.NewLogger("debug")

// startDebugServer exposes the operational side channel every gpsd mode
// shares: /v1/metricz (Prometheus text), /v1/healthz (role-specific
// readiness), /v1/tracez (the flight recorder), /v1/debugz (the bug-
// report bundle), and /debug/pprof. It binds before mode dispatch so a
// worker, coordinator, or single-process daemon all answer the same
// scrape. The server is fire-and-forget — debugging must never take the
// daemon down, so a bind failure warns and the process continues.
func startDebugServer(addr string) {
	if addr == "" {
		return
	}
	initProcessMetrics()
	mux := http.NewServeMux()
	mux.Handle("/v1/metricz", telemetry.Default.Handler())
	mux.Handle("/v1/healthz", serve.HealthHandler(serve.HealthFunc(processHealthInfo)))
	mux.Handle("/v1/tracez", trace.Handler())
	mux.Handle("/v1/debugz", trace.DebugzHandler(trace.DebugzOptions{
		Metrics: func(w io.Writer) error {
			_, err := telemetry.Default.WriteTo(w)
			return err
		},
		HealthState: func() (string, bool) {
			return processHealthInfo().Role, true
		},
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		debugLog.Warnf("debug server: %v", err)
		return
	}
	srv := serve.NewHTTPServer("", mux)
	// CPU profiles stream for ?seconds=N; the serving layer's write bound
	// would truncate them.
	srv.WriteTimeout = 0
	go func() {
		if err := srv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			debugLog.Errorf("debug server: %v", err)
		}
	}()
	debugLog.Infof("debug server on http://%s (/v1/metricz, /v1/tracez, /debug/pprof)", lis.Addr())
}

// initProcessMetrics adds the process-level gauges sampled at scrape
// time. Heap via GaugeFunc replaces the MemStats figure the worker used
// to print in its world-built log line.
func initProcessMetrics() {
	telemetry.Default.GaugeFunc("gps_process_heap_bytes",
		"live heap allocation (runtime.MemStats.HeapAlloc)",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	telemetry.Default.GaugeFunc("gps_process_goroutines",
		"current goroutine count",
		func() float64 { return float64(runtime.NumGoroutine()) })
}
