package gps

import (
	"io"
	"net"
	"net/http"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/metrics"
	"gps/internal/netmodel"
	"gps/internal/predict"
	"gps/internal/priors"
	"gps/internal/probmodel"
	"gps/internal/scanner"
	"gps/internal/serve"
	"gps/internal/shard"
	"gps/internal/shard/transport"
	"gps/internal/telemetry"
	"gps/internal/trace"
	"gps/internal/wire"
)

// This file re-exports the library's supporting types through the root
// package so that downstream users can drive the full pipeline — universe
// generation, dataset snapshots, evaluation metrics — without importing
// internal packages. The aliases are the public API surface; the internal
// packages remain free to reorganize behind them.

// IP is an IPv4 address in host byte order.
type IP = asndb.IP

// Prefix is a CIDR block.
type Prefix = asndb.Prefix

// ASN is an autonomous system number.
type ASN = asndb.ASN

// Universe is the synthetic IPv4 Internet GPS scans; it stands in for the
// live address space.
type Universe = netmodel.Universe

// UniverseParams configures universe generation.
type UniverseParams = netmodel.Params

// UniversePartition restricts universe generation to the owned subset of
// an n-way hash split (ShardOf): only owned addresses materialize hosts,
// each byte-identical to the full universe's. Shard workers use this to
// hold ~1/N of the world.
type UniversePartition = netmodel.Partition

// ServiceKey identifies one service as an (IP, port) pair.
type ServiceKey = netmodel.Key

// Dataset is a collection of observed services: seed sets, test sets, and
// ground-truth snapshots.
type Dataset = dataset.Dataset

// Record is one observed service.
type Record = dataset.Record

// FeatureKey identifies one of the 25 features of Table 1.
type FeatureKey = features.Key

// Protocol identifies an application-layer protocol.
type Protocol = features.Protocol

// Model is the trained conditional-probability model (Expressions 4-7).
type Model = probmodel.Model

// FamilySet selects which conditional-probability families to use.
type FamilySet = probmodel.FamilySet

// PriorsList is the ordered (port, subnet) scan list of phase 3.
type PriorsList = priors.List

// Prediction is one predicted (IP, port) pair with its probability.
type Prediction = predict.Prediction

// GroundTruth indexes a dataset for evaluation.
type GroundTruth = metrics.GroundTruth

// Tracker accumulates discoveries into coverage curves.
type Tracker = metrics.Tracker

// Curve is a coverage-vs-bandwidth curve.
type Curve = metrics.Curve

// Rate models a scanning link rate for wall-time estimates.
type Rate = scanner.Rate

// GenerateUniverse builds a deterministic synthetic Internet. It panics
// on invalid parameters; NewUniverse returns the error instead.
func GenerateUniverse(p UniverseParams) *Universe { return netmodel.Generate(p) }

// NewUniverse builds a deterministic synthetic Internet, validating the
// parameters (including any UniversePartition) instead of panicking.
// Use it wherever the parameters crossed a trust boundary — e.g. a shard
// worker rebuilding a world from a coordinator's spec.
func NewUniverse(p UniverseParams) (*Universe, error) { return netmodel.GenerateChecked(p) }

// MergeUniverses combines two universes generated (and churned)
// identically except for disjoint owned partitions into one universe
// owning the union; the worker-side cheap path for adopting a re-queued
// shard without regenerating the world.
func MergeUniverses(a, b *Universe) (*Universe, error) { return netmodel.Merge(a, b) }

// DefaultUniverseParams returns a mid-sized universe configuration.
func DefaultUniverseParams(seed int64) UniverseParams { return netmodel.DefaultParams(seed) }

// SmallUniverseParams returns a small universe configuration suitable for
// examples and tests.
func SmallUniverseParams(seed int64) UniverseParams { return netmodel.TestParams(seed) }

// DemoUniverseParams derives a universe configuration from the three
// knobs the command-line tools expose (seed, announced /16 count, host
// density). gps and gpsd share this recipe: gpsd's checkpoints pin only
// these three values, so both commands must derive identical universes
// from them.
func DemoUniverseParams(seed int64, prefixes int, density float64) UniverseParams {
	p := netmodel.DefaultParams(seed)
	p.NumPrefix16 = prefixes
	p.NumASes = max(4, prefixes/2)
	p.HostDensity = density
	return p
}

// SnapshotCensys captures a Censys-style ground truth: 100% scans of the
// top-k most popular ports.
func SnapshotCensys(u *Universe, k int) *Dataset { return dataset.SnapshotCensys(u, k) }

// SnapshotAllPorts captures an LZR-style ground truth: a uniform random
// sample of the address space scanned across all 65K ports.
func SnapshotAllPorts(u *Universe, fraction float64, seed int64) *Dataset {
	return dataset.SnapshotLZR(u, fraction, seed)
}

// NewGroundTruth indexes a dataset for evaluation.
func NewGroundTruth(d *Dataset) *GroundTruth { return metrics.NewGroundTruth(d) }

// NewTracker creates a coverage tracker against a ground truth.
func NewTracker(gt *GroundTruth, spaceSize uint64) *Tracker {
	return metrics.NewTracker(gt, spaceSize)
}

// ChurnParams controls how the universe evolves between observations.
type ChurnParams = netmodel.ChurnParams

// DefaultChurn returns churn parameters tuned to the paper's 10-day
// measurement (§3).
func DefaultChurn(seed int64) ChurnParams { return netmodel.DefaultChurn(seed) }

// ApplyChurn advances the universe one churn step, returning the evolved
// universe; the input is unmodified.
func ApplyChurn(u *Universe, p ChurnParams) *Universe { return netmodel.Churn(u, p) }

// ContinuousConfig parameterizes the continuous scanning subsystem.
type ContinuousConfig = continuous.Config

// Continuous is the epoch-driven continuous scanner: it re-verifies known
// services, re-trains on fresh observations, and spends a recurring
// budget on discovery so the inventory tracks churn.
type Continuous = continuous.Runner

// ContinuousState is the checkpointable state of a continuous scan.
type ContinuousState = continuous.State

// EpochStats summarizes one continuous-scanning epoch.
type EpochStats = continuous.EpochStats

// KnownService is one tracked service in the continuous inventory.
type KnownService = continuous.Entry

// Freshness is the per-epoch staleness accounting of the known set.
type Freshness = metrics.Freshness

// NewContinuous creates a continuous scanner seeded with an initial
// observation set (typically CollectSeed output).
func NewContinuous(seed *Dataset, cfg ContinuousConfig) *Continuous {
	return continuous.New(seed, cfg)
}

// ResumeContinuous creates a continuous scanner from checkpointed state.
func ResumeContinuous(st *ContinuousState, cfg ContinuousConfig) *Continuous {
	return continuous.Resume(st, cfg)
}

// WriteContinuousCheckpoint serializes continuous-scan state.
func WriteContinuousCheckpoint(w io.Writer, st *ContinuousState) error {
	return continuous.WriteCheckpoint(w, st)
}

// ReadContinuousCheckpoint parses WriteContinuousCheckpoint output.
func ReadContinuousCheckpoint(r io.Reader) (*ContinuousState, error) {
	return continuous.ReadCheckpoint(r)
}

// ShardFilter selects one partition of an n-way hash split of the
// address space.
type ShardFilter = shard.Filter

// ShardConfig parameterizes the sharded continuous coordinator.
type ShardConfig = shard.Config

// ShardCoordinator drives N continuous runners, one per partition,
// running their epochs concurrently and merging their inventories into a
// single global view.
type ShardCoordinator = shard.Coordinator

// ShardMerged is the single global view folded from per-shard batch
// pipeline results.
type ShardMerged = shard.Merged

// ShardOf maps an address to one of n shards; the assignment is a pure
// function of (ip, n), stable across runs and churn.
func ShardOf(ip IP, n int) int { return asndb.ShardOf(ip, n) }

// PartitionDataset splits a dataset into n shard-local datasets by IP
// hash.
func PartitionDataset(d *Dataset, n int) []*Dataset { return shard.Partition(d, n) }

// RunSharded executes one batch GPS run partitioned over n shards — n
// independent pipeline runs, each owning one hash partition of the
// address space with its own model and a 1/n budget slice — and folds
// them into one merged view. With an unlimited budget (cfg.Budget == 0)
// the merged inventory is byte-identical to the unsharded run's; a
// finite budget is sliced per shard, so each shard stops in different
// places than the global probe ordering would and the equality becomes
// approximate.
func RunSharded(u *Universe, seedSet *Dataset, cfg Config, n int) (*ShardMerged, error) {
	return shard.Run(u, seedSet, cfg, n)
}

// MergeShardResults folds per-shard batch results into one global view.
// The merged SeedProbes assumes the RunSharded workflow (one seed
// broadcast to every shard); if each shard trained on a disjoint
// PartitionDataset slice instead, account the seed cost from the slices'
// CollectionProbes rather than the merged figure.
func MergeShardResults(results []*Result) *ShardMerged { return shard.MergeResults(results) }

// NewShardCoordinator creates a sharded continuous coordinator seeded
// with an initial observation set.
func NewShardCoordinator(seed *Dataset, cfg ShardConfig) *ShardCoordinator {
	return shard.NewCoordinator(seed, cfg)
}

// ResumeShardCoordinator recreates a coordinator from checkpointed
// per-shard states.
func ResumeShardCoordinator(states []*ContinuousState, cfg ShardConfig) (*ShardCoordinator, error) {
	return shard.ResumeCoordinator(states, cfg)
}

// MergeShardInventories folds per-shard continuous states into one
// global inventory with cross-shard conflict resolution, returning the
// merged inventory and the number of conflicts resolved.
func MergeShardInventories(states []*ContinuousState) (map[ServiceKey]*KnownService, int) {
	return shard.MergeInventories(states)
}

// WriteShardCheckpoint serializes per-shard continuous states in shard
// order.
func WriteShardCheckpoint(w io.Writer, states []*ContinuousState) error {
	return shard.WriteCheckpoint(w, states)
}

// ReadShardCheckpoint parses WriteShardCheckpoint output.
func ReadShardCheckpoint(r io.Reader) ([]*ContinuousState, error) {
	return shard.ReadCheckpoint(r)
}

// SplitShardStates doubles a checkpointed layout's shard count without a
// rescan: state i of an n-way hash split partitions into states i and i+n
// of a 2n-way split by re-hashing each inventory entry. JoinShardStates
// inverts it. Together they are shard re-balancing: a hot shard splits in
// two (each half resumable on its own worker), and cold halves rejoin.
func SplitShardStates(states []*ContinuousState) ([]*ContinuousState, error) {
	return shard.SplitStates(states)
}

// JoinShardStates halves a checkpointed layout's shard count, merging
// states i and i+n/2; the exact inverse of SplitShardStates.
func JoinShardStates(states []*ContinuousState) ([]*ContinuousState, error) {
	return shard.JoinStates(states)
}

// WriteShardInventory serializes a merged continuous inventory
// canonically (sorted keys plus per-entry serving fields and observation
// history): two coordinators that tracked the same services through the
// same epochs produce byte-identical output whatever their shard layout
// or transport.
func WriteShardInventory(w io.Writer, inv map[ServiceKey]*KnownService) error {
	return shard.WriteInventory(w, inv)
}

// ReadShardInventory parses WriteShardInventory output back into a
// merged inventory: the serving artifact `gpsd serve FILE` loads.
// Malformed input is a *WireError with Format "GPSV".
func ReadShardInventory(r io.Reader) (map[ServiceKey]*KnownService, error) {
	return shard.ReadInventory(r)
}

// WireError is the typed failure every binary decoder in the stack
// returns for malformed input — checkpoints, inventories, deltas,
// datasets and transport frames alike. Format names the format ("GPSV",
// "GPSE", "GPST", ...), Kind the damage (bad magic, bad version,
// truncated, implausible, trailing data), Section and Index where.
type WireError = wire.Error

// ShardCommitHook observes each committed coordinator epoch with the
// merged global inventory; register it with a ShardCoordinator's or
// DistributedCoordinator's SetCommitHook to feed an InventoryPublisher.
type ShardCommitHook = shard.CommitHook

// ContinuousCommitHook observes each committed epoch of a single
// (unsharded) continuous runner.
type ContinuousCommitHook = continuous.CommitHook

// InventorySnapshot is one immutable, fully-indexed view of the service
// inventory at a committed epoch: secondary indexes by host, port, /16
// prefix, and ASN, plus precomputed freshness aggregates. Safe for
// unlimited concurrent readers.
type InventorySnapshot = serve.Snapshot

// InventoryPublisher atomically swaps snapshots under concurrent readers:
// the lock-free handoff between the scan loop and the query engine.
type InventoryPublisher = serve.Publisher

// InventoryServer is the HTTP query API (/v1/host, /v1/port, /v1/asn,
// /v1/prefix, /v1/ports, /v1/stats, /v1/healthz) over a publisher, with
// pagination and epoch-keyed ETags; every response is a pure function of
// the snapshot it is served from.
type InventoryServer = serve.Server

// InventoryStats is a snapshot's precomputed aggregate view.
type InventoryStats = serve.Stats

// ServedService is one inventory entry as served.
type ServedService = serve.Service

// InventoryPortCount is one row of the per-port coverage aggregate.
type InventoryPortCount = serve.PortCount

// NewInventorySnapshot indexes a merged inventory as of a committed
// epoch. The input map is read, never retained.
func NewInventorySnapshot(epoch int, inv map[ServiceKey]*KnownService) *InventorySnapshot {
	return serve.NewSnapshot(epoch, inv)
}

// NewInventoryServer wraps a publisher in the HTTP query API.
func NewInventoryServer(pub *InventoryPublisher) *InventoryServer {
	return serve.NewServer(pub)
}

// ShardWorld is a worker's deterministic replica of the scanned universe,
// advanced epoch by epoch.
type ShardWorld = transport.World

// ShardWorldFactory builds a ShardWorld from the coordinator's
// world-spec blob (the caller's base spec wrapped in the partition
// envelope; unwrap with SplitShardWorldSpec).
type ShardWorldFactory = transport.WorldFactory

// ShardExtendableWorld is an optional ShardWorld extension: a
// partitioned world that can adopt a grown owned-shard set in place
// (materializing just the newly owned partition) when a re-queued shard
// arrives, instead of being rebuilt from scratch.
type ShardExtendableWorld = transport.ExtendableWorld

// ShardWorkerOptions tunes ServeShardWorker.
type ShardWorkerOptions = transport.WorkerOptions

// DistributedOptions tunes the distributed coordinator's client side
// (RPC deadline, dial retry window, logging).
type DistributedOptions = transport.Options

// DistributedCoordinator drives N shards across remote worker processes
// over the GPS shard transport, mirroring the in-process ShardCoordinator
// API; its merged inventory is byte-identical to the in-process run's.
type DistributedCoordinator = transport.Coordinator

// ShardWorkerError is the transport's typed worker failure: which worker
// failed, which shard it was serving, and why.
type ShardWorkerError = transport.WorkerError

// ServeShardWorker runs a shard worker process: it accepts coordinator
// sessions on lis and serves shard epochs until the listener closes.
func ServeShardWorker(lis net.Listener, factory ShardWorldFactory, opts *ShardWorkerOptions) error {
	return transport.Serve(lis, factory, opts)
}

// JoinShardWorker registers this process as a new worker with a running
// coordinator's join listener (DistributedCoordinator.AcceptJoins; gpsd
// -cluster) and serves shard epochs over the resulting session. The
// coordinator migrates shards to it live at the next epoch boundary. A
// nil return means a clean shutdown — the coordinator finished, or this
// worker drained out (opts.Draining) and its shards were handed off.
func JoinShardWorker(addr, id string, factory ShardWorldFactory, opts *ShardWorkerOptions) error {
	return transport.Join(addr, id, factory, opts)
}

// ClusterStatus is the live membership document a distributed
// coordinator maintains: per-worker state and shard ownership, per-shard
// latency summaries, and the migration history. GET /v1/cluster serves
// it verbatim.
type ClusterStatus = transport.ClusterStatus

// ClusterWorkerStatus is one worker row of a ClusterStatus.
type ClusterWorkerStatus = transport.WorkerStatus

// ClusterShardStatus is one shard's ownership + latency row of a
// ClusterStatus.
type ClusterShardStatus = transport.ShardStatus

// ClusterMigrationStatus is one completed (or in-flight) live shard
// migration in a ClusterStatus.
type ClusterMigrationStatus = transport.MigrationStatus

// HealthInfo is one process's role-specific readiness, merged into the
// /v1/healthz document (role, shards owned, draining, feed lag).
type HealthInfo = serve.HealthInfo

// HealthSource supplies live HealthInfo; attach one to an
// InventoryServer with SetHealthSource. *ReplicaServer implements it.
type HealthSource = serve.HealthSource

// HealthFunc adapts a closure to HealthSource.
type HealthFunc = serve.HealthFunc

// HealthHandler is a standalone /v1/healthz endpoint for processes with
// readiness but no inventory (a worker's debug mux).
func HealthHandler(hs HealthSource) http.Handler { return serve.HealthHandler(hs) }

// DialShardWorkers connects a distributed coordinator to a worker fleet.
// Seed or Resume it, then drive Epoch in a loop. worldSpec is the base
// world description; each worker receives it wrapped with its own
// owned-shard set (PartitionShardWorldSpec), so workers materialize only
// the partition they scan.
func DialShardWorkers(addrs []string, cfg ShardConfig, worldSpec []byte, opts *DistributedOptions) (*DistributedCoordinator, error) {
	return transport.Dial(addrs, cfg, worldSpec, opts)
}

// PartitionShardWorldSpec wraps a base world spec with the transport's
// partition envelope: the total shard count plus the owned shard
// indexes. The distributed coordinator applies it automatically; it is
// exported for tests and custom coordinators.
func PartitionShardWorldSpec(base []byte, shards int, owned []int) []byte {
	return transport.EncodeWorldSpec(base, shards, owned)
}

// SplitShardWorldSpec unwraps PartitionShardWorldSpec output into the
// base spec, the total shard count, and the owned shard indexes
// (ascending). ShardWorldFactory implementations call this on the spec
// the coordinator delivers.
func SplitShardWorldSpec(spec []byte) (base []byte, shards int, owned []int, err error) {
	return transport.DecodeWorldSpec(spec)
}

// TelemetryRegistry is the runtime metrics registry: atomic counters,
// gauges, fixed-bucket histograms, and EWMA gauges with a Prometheus
// text exposition (Handler serves it as /v1/metricz).
type TelemetryRegistry = telemetry.Registry

// Telemetry returns the process-wide default registry every GPS layer
// instruments into. Scrape it with Telemetry().Handler(), or disable
// recording entirely with Telemetry().SetEnabled(false) (benchmarks
// measure instrumentation overhead this way).
func Telemetry() *TelemetryRegistry { return telemetry.Default }

// Tracer is the distributed flight recorder: finished spans land in a
// bounded in-process ring, trace context propagates over the shard
// transport, and worker-side spans ship back with each epoch result so
// one coordinator trace stitches the whole fleet's work.
type Tracer = trace.Tracer

// Tracing returns the process-wide default tracer every GPS layer
// records spans into. Disable recording with
// Tracing().SetEnabled(false) (span starts become nil no-ops), or tag
// this process's spans with Tracing().SetProcess("worker:a").
func Tracing() *Tracer { return trace.Default }

// TraceHandler serves /v1/tracez from the default tracer: a JSON list
// of recent traces, ?trace=ID for one stitched tree, ?format=text for
// a waterfall rendering.
func TraceHandler() http.Handler { return trace.Handler() }

// DebugzOptions names the sections a /v1/debugz bundle snapshots;
// every field is optional.
type DebugzOptions = trace.DebugzOptions

// DebugzHandler serves the one-request bug-report bundle: build info,
// metrics, cluster doc, and recent traces as NDJSON.
func DebugzHandler(opts DebugzOptions) http.Handler { return trace.DebugzHandler(opts) }

// Logger is the structured leveled logger: logfmt-style key=value
// lines (or JSON, via SetLogJSON) tagged with a component and the
// trace id of the epoch in flight. Debug/Info route to the stdout
// writer, Warn/Error to the stderr writer.
type Logger = trace.Logger

// LogField is one fixed key=value field attached to a Logger.
type LogField = trace.Attr

// LogLevel is a log severity, in increasing order of urgency.
type LogLevel = trace.Level

// Log severities: Debug and Info route to the stdout writer, Warn and
// Error to the stderr writer.
const (
	LogLevelDebug = trace.LevelDebug
	LogLevelInfo  = trace.LevelInfo
	LogLevelWarn  = trace.LevelWarn
	LogLevelError = trace.LevelError
)

// LogString builds a string-valued LogField.
func LogString(k, v string) LogField { return trace.String(k, v) }

// LogInt builds an int-valued LogField.
func LogInt(k string, v int) LogField { return trace.Int(k, v) }

// NewLogger builds a logger for one component ("gpsd", "cluster",
// "worker", ...) with optional fixed fields.
func NewLogger(component string, fields ...LogField) *Logger {
	return trace.NewLogger(component, fields...)
}

// SetLogJSON switches every logger between logfmt text (false) and
// one-JSON-object-per-line (true); gpsd's -log-json flag.
func SetLogJSON(on bool) { trace.SetLogJSON(on) }

// SetLogOutput redirects the process-wide log destinations (nil keeps
// one unchanged) and returns the previous pair so tests can restore.
func SetLogOutput(out, errw io.Writer) (prevOut, prevErr io.Writer) {
	return trace.SetLogOutput(out, errw)
}

// NewHTTPServer returns an http.Server with the serving layer's
// slow-client timeout defaults applied — use it for any listener exposed
// beyond localhost.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return serve.NewHTTPServer(addr, h)
}

// Evaluate replays a result's discovery log against a held-out test set
// and returns the final coverage point plus the sampled curve.
func Evaluate(res *Result, testSet *Dataset, spaceSize uint64) (metrics.Point, Curve) {
	gt := metrics.NewGroundTruth(testSet)
	tr := metrics.NewTracker(gt, spaceSize)
	tr.Snapshot()
	var last uint64
	for _, d := range res.Discoveries {
		if d.Probes > last {
			tr.Spend(d.Probes - last)
			last = d.Probes
		}
		tr.Record(d.Key)
	}
	if total := res.TotalScanProbes(); total > last {
		tr.Spend(total - last)
	}
	p := tr.Snapshot()
	return p, tr.Curve()
}

// SnapshotDelta is one epoch transition of the merged inventory — the
// adds, updates, and removes that turn the BaseEpoch inventory into the
// Epoch one, sorted canonically. It is the unit of replication: origins
// compute one per commit, replicas and /v1/watch consumers apply them.
type SnapshotDelta = shard.Delta

// SnapshotDeltaEntry is one added or updated service in a SnapshotDelta.
type SnapshotDeltaEntry = shard.DeltaEntry

// ComputeSnapshotDelta diffs two merged inventories (only the canonical
// GPSV serving fields participate) into the delta that advances base to
// next.
func ComputeSnapshotDelta(base, next map[ServiceKey]*KnownService, baseEpoch, epoch int) *SnapshotDelta {
	return shard.ComputeDelta(base, next, baseEpoch, epoch)
}

// ApplySnapshotDelta applies d to inv in place, strictly: adding a held
// service, or updating/removing an unheld one, errors with inv partially
// modified (clone first — CloneShardInventory — to keep a usable view).
func ApplySnapshotDelta(inv map[ServiceKey]*KnownService, d *SnapshotDelta) error {
	return shard.ApplyDelta(inv, d)
}

// CloneShardInventory deep-copies a merged inventory.
func CloneShardInventory(inv map[ServiceKey]*KnownService) map[ServiceKey]*KnownService {
	return shard.CloneInventory(inv)
}

// WriteSnapshotDelta serializes a delta canonically (GPSE): equal deltas
// produce byte-identical output.
func WriteSnapshotDelta(w io.Writer, d *SnapshotDelta) error {
	return shard.WriteDelta(w, d)
}

// ReadSnapshotDelta parses WriteSnapshotDelta output. Malformed input is
// a *WireError with Format "GPSE".
func ReadSnapshotDelta(r io.Reader) (*SnapshotDelta, error) {
	return shard.ReadDelta(r)
}

// InventoryFeed is the change-feed hub between an epoch-committing
// producer and replication/watch consumers: it retains a bounded history
// of per-epoch deltas plus the current inventory, serves them to feed
// subscribers and GET /v1/watch, and wakes waiters on every commit.
type InventoryFeed = serve.Feed

// NewInventoryFeed returns a feed retaining up to history epoch deltas
// (<= 0 selects the default depth). Feed each committed epoch to it via
// Commit — typically alongside the InventoryPublisher in a commit hook.
func NewInventoryFeed(history int) *InventoryFeed { return serve.NewFeed(history) }

// InventoryFeedSource is the subscription contract ServeInventoryFeed
// serves; *InventoryFeed satisfies it.
type InventoryFeedSource = transport.FeedSource

// InventoryFeedEvent is one received feed frame: a full snapshot (GPSV
// bytes) or an epoch delta (GPSE bytes), tagged with the origin's head
// epoch for lag accounting.
type InventoryFeedEvent = transport.FeedEvent

// InventoryFeedConn is one subscriber's connection to a replication feed.
type InventoryFeedConn = transport.FeedConn

// Feed event kinds.
const (
	InventoryFeedSnapshot = transport.FeedSnapshot
	InventoryFeedDelta    = transport.FeedDelta
)

// ServeInventoryFeed serves a replication feed on lis until the listener
// closes: each subscriber is bootstrapped (full snapshot) or resumed
// (delta chain) according to the epoch it presents, then streamed one
// delta per commit.
func ServeInventoryFeed(lis net.Listener, src InventoryFeedSource, opts *DistributedOptions) error {
	return transport.ServeFeed(lis, src, opts)
}

// DialInventoryFeed subscribes to a replication feed. since is the epoch
// the caller already holds (-1 for none); the server decides snapshot
// versus delta per event, so callers just apply what arrives.
func DialInventoryFeed(addr string, since int, opts *DistributedOptions) (*InventoryFeedConn, error) {
	return transport.DialFeed(addr, since, opts)
}

// ReplicaServer is a stateless read replica: it subscribes to an origin's
// replication feed, applies epoch deltas onto a local inventory, and
// publishes every applied epoch — a Server over its Publisher serves the
// full /v1 API with ETags identical to the origin's, and its Feed
// re-exports the stream to further replicas and /v1/watch.
type ReplicaServer = serve.ReplicaServer

// ReplicaOptions tunes a ReplicaServer.
type ReplicaOptions = serve.ReplicaOptions

// NewReplicaServer prepares a replica of the origin feed at upstream
// (host:port of the origin's -feed listener); Run starts it.
func NewReplicaServer(upstream string, opts *ReplicaOptions) *ReplicaServer {
	return serve.NewReplicaServer(upstream, opts)
}

// WatchClient follows a GET /v1/watch NDJSON stream.
type WatchClient = serve.WatchClient

// WatchEvent is one /v1/watch stream event; ApplyTo folds it into a
// local inventory so a consumer reconstructs the origin's view exactly.
type WatchEvent = serve.WatchEvent

// WatchEntry is one service in a watch event.
type WatchEntry = serve.WatchEntry

// WatchKey names one removed service in a watch event.
type WatchKey = serve.WatchKey

// ErrWatchDone stops WatchClient.Follow cleanly from inside its callback.
var ErrWatchDone = serve.ErrWatchDone
