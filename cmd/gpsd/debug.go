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

// processHealth is the process's one readiness document: /v1/healthz on
// -debug-addr and on -serve both render it (processHealthInfo), so the
// two listeners cannot disagree. main declares the role before dispatch
// (declareProcessHealth), so a worker with no query API still answers a
// structured readiness probe; a mode whose readiness moves between
// probes adds a live overlay.
var processHealth struct {
	mu   sync.Mutex
	info serve.HealthInfo
	live func(*serve.HealthInfo)
}

// setProcessHealth mutates the readiness doc in place; safe from any
// goroutine.
func setProcessHealth(mutate func(*serve.HealthInfo)) {
	processHealth.mu.Lock()
	defer processHealth.mu.Unlock()
	mutate(&processHealth.info)
}

// declareProcessHealth sets the doc for the mode the flags select and
// drops any earlier overlay: once per process, from main.
func declareProcessHealth(f daemonFlags) {
	info := serve.HealthInfo{Role: f.role()}
	if info.Role == "origin" || info.Role == "coordinator" {
		info.ShardsOwned = f.shards
	}
	processHealth.mu.Lock()
	defer processHealth.mu.Unlock()
	processHealth.info, processHealth.live = info, nil
}

// setProcessHealthLive installs the overlay processHealthInfo applies on
// every probe: the fields a mode reads live rather than records.
func setProcessHealthLive(live func(*serve.HealthInfo)) {
	processHealth.mu.Lock()
	defer processHealth.mu.Unlock()
	processHealth.live = live
}

// workerShardsOwned is the transport session's owned-shard gauge,
// resolved once: processHealthInfo runs per /v1/healthz probe, which
// must not re-enter the telemetry registry.
var workerShardsOwned = telemetry.Default.Gauge("gps_worker_shards_owned",
	"shards currently assigned to this worker's session")

// workerHealthLive reads the worker's owned-shard count from the gauge
// the transport session maintains, so placements show up immediately.
func workerHealthLive(i *serve.HealthInfo) { i.ShardsOwned = int(workerShardsOwned.Value()) }

// replicaHealthLive folds the replica's own readiness — starting until
// its first bootstrap frame, then epochs behind the origin — into the
// process doc.
func replicaHealthLive(rep *serve.ReplicaServer) func(*serve.HealthInfo) {
	return func(i *serve.HealthInfo) {
		h := rep.Health()
		i.Bootstrapping, i.FeedLag = h.Bootstrapping, h.FeedLag
	}
}

// processHealthInfo snapshots the readiness doc for a probe.
func processHealthInfo() serve.HealthInfo {
	processHealth.mu.Lock()
	defer processHealth.mu.Unlock()
	info := processHealth.info
	if processHealth.live != nil {
		processHealth.live(&info)
	}
	return info
}

// newAPIServer builds a -serve query API over pub whose /v1/healthz
// renders the process doc, like the debug listener's.
func newAPIServer(pub *serve.Publisher) *serve.Server {
	return serve.NewServer(pub).SetHealthSource(serve.HealthFunc(processHealthInfo))
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
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		debugLog.Warnf("debug server: %v", err)
		return
	}
	srv := serve.NewHTTPServer("", debugMux())
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

// debugMux is the side channel's routing table.
func debugMux() *http.ServeMux {
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
	return mux
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
