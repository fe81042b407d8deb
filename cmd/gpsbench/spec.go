package main

// The benchmark's vocabulary: the workloads and every metric it can
// print, with unit and direction. BENCHMARK.json at the repository root
// repeats the workloads, the per-layer metrics and the end-to-end metrics
// marked everywhere; main_test.go checks the two against each other and
// against what a run emits.

type workloadSpec struct {
	name string
	why  string
	run  func(*run) error
}

var workloads = []workloadSpec{
	{"epoch-dist", "the epoch clock: coordinator to GPST workers to merge to snapshot to feed to replica-visible; compute is most of it", runEpochDist},
	{"batch-predict", "the paper's Table-2 clock: single-process gps.Run on the parallel engine path; no transport, shard or serve code runs", runBatchPredict},
	{"replicate-churn", "large inventory, small delta and no scanning: the GPSE/GPSV codecs and the replica's clone-and-rebuild dominate", runReplicateChurn},
	{"query-point", "the query clock: small hot-key lookups beside periodic commits; cache hits and net/http overhead dominate", runQueryPoint},
	{"query-page", "same server, opposite use: full cursor walks where every request misses the cache; page copy and JSON encoding dominate", runQueryPage},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare reports a regression.
	bound float64
	// everywhere marks the end-to-end metrics every workload reports
	// and that are never zero: the set BENCHMARK.json lists and the
	// result line carries. The others apply to some workloads only.
	everywhere bool
}

// Bounds follow the spread measured across ten seeds on a shared 2-vCPU
// machine (bench/README.md has the numbers). A bound should be three
// times the widest spread seen on any workload; for the times that would
// be more than the quarter a bound may be, so they sit at the quarter.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, everywhere: true},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25, everywhere: true},
	{name: "latency_tail_ms", unit: "ms", better: "lower", bound: 0.25, everywhere: true},
	{name: "throughput_ops_s", unit: "ops/s", better: "higher", bound: 0.25, everywhere: true},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25, everywhere: true},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.20, everywhere: true},
	{name: "alloc_kb_per_op", unit: "KB", better: "lower", bound: 0.20, everywhere: true},
	{name: "heap_peak_mb", unit: "MB", better: "lower", bound: 0.25, everywhere: true},
	{name: "wire_kb_per_op", unit: "KB", better: "lower", bound: 0.01},
	{name: "fail_frac", unit: "ratio", better: "lower", bound: 0},
	{name: "coverage_frac", unit: "ratio", better: "higher", bound: 0},
	{name: "hits_per_kprobe", unit: "count", better: "higher", bound: 0},
}

var perLayer = []metricSpec{
	{name: "continuous.epoch_ms", unit: "ms", better: "lower"},
	{name: "continuous.self_ms", unit: "ms", better: "lower"},
	{name: "continuous.allocs", unit: "count", better: "lower"},
	{name: "pipeline.run_ms", unit: "ms", better: "lower"},
	{name: "pipeline.scan_self_ms", unit: "ms", better: "lower"},
	{name: "probmodel.build_ms", unit: "ms", better: "lower"},
	{name: "probmodel.build_allocs", unit: "count", better: "lower"},
	{name: "probmodel.conds", unit: "count", better: "lower"},
	{name: "probmodel.pairs", unit: "count", better: "lower"},
	{name: "priors.build_ms", unit: "ms", better: "lower"},
	{name: "priors.targets", unit: "count", better: "lower"},
	{name: "predict.mpf_ms", unit: "ms", better: "lower"},
	{name: "predict.predict_ms", unit: "ms", better: "lower"},
	{name: "predict.predictions", unit: "count", better: "lower"},
	{name: "scanner.probes", unit: "count", better: "lower"},
	{name: "scanner.hit_ratio", unit: "ratio", better: "higher"},
	{name: "shard.merge_ms", unit: "ms", better: "lower"},
	{name: "shard.encode_state_ms", unit: "ms", better: "lower"},
	{name: "shard.decode_state_ms", unit: "ms", better: "lower"},
	{name: "shard.state_kb", unit: "KB", better: "lower"},
	{name: "shard.compute_delta_ms", unit: "ms", better: "lower"},
	{name: "shard.write_delta_ms", unit: "ms", better: "lower"},
	{name: "shard.read_delta_ms", unit: "ms", better: "lower"},
	{name: "shard.apply_delta_ms", unit: "ms", better: "lower"},
	{name: "shard.clone_inventory_ms", unit: "ms", better: "lower"},
	{name: "shard.delta_kb", unit: "KB", better: "lower"},
	{name: "shard.delta_entries", unit: "count", better: "lower"},
	{name: "shard.write_inventory_ms", unit: "ms", better: "lower"},
	{name: "shard.read_inventory_ms", unit: "ms", better: "lower"},
	{name: "shard.inventory_kb", unit: "KB", better: "lower"},
	{name: "transport.epoch_ms", unit: "ms", better: "lower"},
	{name: "transport.rpc_overhead_ms", unit: "ms", better: "lower"},
	{name: "transport.shard_skew", unit: "ratio", better: "lower"},
	{name: "transport.seed_ms", unit: "ms", better: "lower"},
	{name: "transport.wire_kb", unit: "KB", better: "lower"},
	{name: "transport.feed_lag_ms", unit: "ms", better: "lower"},
	{name: "serve.snapshot_build_ms", unit: "ms", better: "lower"},
	{name: "serve.snapshot_allocs", unit: "count", better: "lower"},
	{name: "serve.feed_commit_ms", unit: "ms", better: "lower"},
	{name: "serve.replica_apply_ms", unit: "ms", better: "lower"},
	{name: "serve.replica_bootstrap_ms", unit: "ms", better: "lower"},
	{name: "serve.handler_us", unit: "us", better: "lower"},
	{name: "serve.page_copy_us", unit: "us", better: "lower"},
	{name: "serve.render_self_us", unit: "us", better: "lower"},
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.not_modified_ratio", unit: "ratio", better: "higher"},
	{name: "serve.bytes_per_resp", unit: "B", better: "lower"},
	{name: "net_http.overhead_us", unit: "us", better: "lower"},
	{name: "instr.overhead_frac", unit: "ratio", better: "lower"},
	{name: "instr.allocs_per_epoch", unit: "count", better: "lower"},
	{name: "loadgen.open_p50_ms", unit: "ms", better: "lower"},
	{name: "loadgen.open_tail_ms", unit: "ms", better: "lower"},
	{name: "loadgen.late_ms_p99", unit: "ms", better: "lower"},
	{name: "trace.coverage_frac", unit: "ratio", better: "higher"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}
