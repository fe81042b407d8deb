package shard

import (
	"strconv"

	"gps/internal/telemetry"
)

// Membership instruments, registered at package init: the names are
// fixed, and a registration conflict should crash at startup, not
// mid-epoch. The gps_rpc_* pair keeps the names it had when only a GPST
// link could fail. Migrations are labeled by what triggered them — a
// worker joining or a drain — because the two mean growth and shrinkage.
var (
	workerFailures = telemetry.Default.Counter("gps_rpc_worker_failures_total",
		"workers declared dead by the coordinator")
	shardRequeues = telemetry.Default.Counter("gps_rpc_shard_requeues_total",
		"shards re-queued from a dead worker to a survivor")

	migrations = map[string]*telemetry.Counter{
		"join":  newMigrationCounter("join"),
		"drain": newMigrationCounter("drain"),
	}
	migrationSeconds = telemetry.Default.Histogram("gps_shard_migration_seconds",
		"duration of one live shard migration (placement through its ack)", nil)
	migrationRejects = telemetry.Default.Counter("gps_shard_migration_rejects_total",
		"live migrations refused or failed before the assignment re-pointed")
	clusterJoins = telemetry.Default.Counter("gps_cluster_joins_total",
		"workers admitted to a running coordinator via the join listener")
	clusterDrains = telemetry.Default.Counter("gps_cluster_drains_total",
		"workers drained out of a running coordinator")
	clusterWorkersAlive = telemetry.Default.Gauge("gps_cluster_workers",
		"fleet size by state", "state", "alive")
	clusterWorkersDraining = telemetry.Default.Gauge("gps_cluster_workers",
		"fleet size by state", "state", "draining")
)

func newMigrationCounter(reason string) *telemetry.Counter {
	return telemetry.Default.Counter("gps_shard_migrations_total",
		"live shard migrations completed, by trigger", "reason", reason)
}

// newWorkerShardsGauge registers the per-worker shard-count gauge once
// per cluster membership; publishStatus then updates the cached handle
// every epoch without re-entering the registry.
func newWorkerShardsGauge(id string) *telemetry.Gauge {
	return telemetry.Default.Gauge("gps_cluster_worker_shards",
		"shards assigned to each worker", "worker", id)
}

// coordTelemetry holds the coordinator's pre-registered handles. The
// per-shard epoch-latency histogram — measured around the executor call,
// so over GPST it includes the round trip — is reported load:
// /v1/metricz and the cluster document show it, and no policy moves
// shards on it.
type coordTelemetry struct {
	epochs   *telemetry.Counter
	epoch    *telemetry.Gauge
	shardLat []*telemetry.Histogram
}

func newCoordTelemetry(shards int) *coordTelemetry {
	r := telemetry.Default
	t := &coordTelemetry{
		epochs: r.Counter("gps_coordinator_epochs_total",
			"coordinator epochs committed across all shards"),
		epoch: r.Gauge("gps_coordinator_epoch",
			"last committed coordinator epoch"),
		shardLat: make([]*telemetry.Histogram, shards),
	}
	for i := range t.shardLat {
		t.shardLat[i] = r.Histogram("gps_shard_epoch_seconds",
			"wall-clock time of one shard's epoch",
			nil, "shard", strconv.Itoa(i))
	}
	return t
}

// commit records a completed coordinator epoch.
func (t *coordTelemetry) commit(epoch int) {
	t.epochs.Inc()
	t.epoch.Set(float64(epoch))
}
