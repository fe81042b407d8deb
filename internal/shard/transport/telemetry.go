package transport

import "gps/internal/telemetry"

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

	// The socket half of dynamic membership; admissions, migrations and
	// drains are counted by the coordinator (internal/shard).
	clusterJoinRejects = telemetry.Default.Counter("gps_cluster_join_rejects_total",
		"join attempts refused (version skew, bad registration)")
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
