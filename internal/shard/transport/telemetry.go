package transport

import (
	"strconv"

	"gps/internal/telemetry"
)

// Link-level counters for the GPST framed protocol, split by which side
// of the wire this process is on. Registered at package init: the names
// are fixed, and a registration conflict should crash at startup, not
// mid-epoch.
var (
	coordFramesSent = telemetry.Default.Counter("gps_rpc_frames_total",
		"GPST frames moved, by side and direction", "side", "coordinator", "dir", "sent")
	coordFramesRecv = telemetry.Default.Counter("gps_rpc_frames_total",
		"GPST frames moved, by side and direction", "side", "coordinator", "dir", "recv")
	coordBytesSent = telemetry.Default.Counter("gps_rpc_bytes_total",
		"GPST payload bytes moved (including the 5-byte frame header), by side and direction",
		"side", "coordinator", "dir", "sent")
	coordBytesRecv = telemetry.Default.Counter("gps_rpc_bytes_total",
		"GPST payload bytes moved (including the 5-byte frame header), by side and direction",
		"side", "coordinator", "dir", "recv")
	workerFramesSent = telemetry.Default.Counter("gps_rpc_frames_total",
		"GPST frames moved, by side and direction", "side", "worker", "dir", "sent")
	workerFramesRecv = telemetry.Default.Counter("gps_rpc_frames_total",
		"GPST frames moved, by side and direction", "side", "worker", "dir", "recv")
	workerBytesSent = telemetry.Default.Counter("gps_rpc_bytes_total",
		"GPST payload bytes moved (including the 5-byte frame header), by side and direction",
		"side", "worker", "dir", "sent")
	workerBytesRecv = telemetry.Default.Counter("gps_rpc_bytes_total",
		"GPST payload bytes moved (including the 5-byte frame header), by side and direction",
		"side", "worker", "dir", "recv")

	dialRetries = telemetry.Default.Counter("gps_rpc_dial_retries_total",
		"worker dials that had to be retried (worker not listening yet)")
	workerFailures = telemetry.Default.Counter("gps_rpc_worker_failures_total",
		"workers declared dead by the coordinator")
	shardRequeues = telemetry.Default.Counter("gps_rpc_shard_requeues_total",
		"shards re-queued from a dead worker to a survivor")

	// Dynamic-membership instruments (coordinator side). Migrations are
	// labeled by what triggered them — a worker joining, a drain, or the
	// EWMA rebalance policy — because the three have very different
	// operational meanings (growth, shrinkage, hotspot healing).
	migrationsJoin = telemetry.Default.Counter("gps_shard_migrations_total",
		"live shard migrations completed, by trigger", "reason", "join")
	migrationsDrain = telemetry.Default.Counter("gps_shard_migrations_total",
		"live shard migrations completed, by trigger", "reason", "drain")
	migrationsRebalance = telemetry.Default.Counter("gps_shard_migrations_total",
		"live shard migrations completed, by trigger", "reason", "rebalance")
	migrationSeconds = telemetry.Default.Histogram("gps_shard_migration_seconds",
		"duration of one live shard migration (placement through its ack)", nil)
	migrationRejects = telemetry.Default.Counter("gps_shard_migration_rejects_total",
		"live migrations refused or failed before the assignment re-pointed")
	clusterJoins = telemetry.Default.Counter("gps_cluster_joins_total",
		"workers admitted to a running coordinator via the join listener")
	clusterJoinRejects = telemetry.Default.Counter("gps_cluster_join_rejects_total",
		"join attempts refused (version skew, bad registration)")
	clusterDrains = telemetry.Default.Counter("gps_cluster_drains_total",
		"workers drained out of a running coordinator")
	clusterWorkersAlive = telemetry.Default.Gauge("gps_cluster_workers",
		"fleet size by state", "state", "alive")
	clusterWorkersDraining = telemetry.Default.Gauge("gps_cluster_workers",
		"fleet size by state", "state", "draining")
	clusterWorkersPending = telemetry.Default.Gauge("gps_cluster_workers",
		"fleet size by state", "state", "pending")

	workerSessions = telemetry.Default.Counter("gps_worker_sessions_total",
		"coordinator sessions accepted by this worker")
	workerEpochs = telemetry.Default.Counter("gps_worker_epochs_total",
		"shard epochs executed by this worker")
	workerShardsOwned = telemetry.Default.Gauge("gps_worker_shards_owned",
		"shards currently assigned to this worker's session")

	feedSessions = telemetry.Default.Counter("gps_feed_sessions_total",
		"replica subscriptions accepted by this origin's feed listener")
	feedSubscribers = telemetry.Default.Gauge("gps_feed_subscribers",
		"replica subscriptions currently connected to this origin")
	feedSnapshotsSent = telemetry.Default.Counter("gps_feed_snapshots_sent_total",
		"full-inventory bootstrap frames pushed to replicas")
	feedDeltasSent = telemetry.Default.Counter("gps_feed_deltas_sent_total",
		"epoch-delta frames pushed to replicas")
	feedEventsRecv = telemetry.Default.Counter("gps_feed_events_recv_total",
		"feed events (snapshots + deltas) received by this replica")
)

// frameOverhead is the GPST frame header size added to every payload.
const frameOverhead = 5

// rpcTelemetry is the coordinator's per-shard RPC latency handles,
// registered at Dial when the shard count is known. The RPC latency
// includes the worker's epoch compute, so its EWMA is the remote twin of
// shard.Coordinator's in-process membership signal.
type rpcTelemetry struct {
	shardLat []*telemetry.Histogram
	shardEw  []*telemetry.EWMA
}

func newRPCTelemetry(shards int) *rpcTelemetry {
	r := telemetry.Default
	t := &rpcTelemetry{
		shardLat: make([]*telemetry.Histogram, shards),
		shardEw:  make([]*telemetry.EWMA, shards),
	}
	for i := range t.shardLat {
		shard := strconv.Itoa(i)
		t.shardLat[i] = r.Histogram("gps_rpc_shard_epoch_seconds",
			"round-trip time of one shard's remote epoch (includes worker compute)",
			nil, "shard", shard)
		t.shardEw[i] = r.EWMA("gps_rpc_shard_epoch_ewma_seconds",
			"exponentially smoothed remote shard epoch latency (membership signal)",
			0.3, "shard", shard)
	}
	return t
}

// newWorkerShardsGauge registers the per-worker shard-count gauge once
// per cluster membership; publishStatus then updates the cached handle
// every epoch without re-entering the registry.
func newWorkerShardsGauge(id string) *telemetry.Gauge {
	return telemetry.Default.Gauge("gps_cluster_worker_shards",
		"shards assigned to each worker", "worker", id)
}
