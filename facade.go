package gps

import (
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/metrics"
	"gps/internal/netmodel"
	"gps/internal/scanner"
	"gps/internal/serve"
	"gps/internal/shard"
)

// The rest of the root surface: the names some non-test file under
// examples/, cmd/gps or cmd/gpsbench spells, and nothing else
// (TestRootSurfaceIsSpelled enforces it). A binary that drives a
// subsystem — gpsd, gpseval, gpsbench — imports that subsystem's
// internal package directly; signatures here are written over the
// internal types, so no alias exists only to spell one.

// Dataset is a collection of observed services: seed sets, test sets, and
// ground-truth snapshots.
type Dataset = dataset.Dataset

// ServiceKey identifies one service as an (IP, port) pair.
type ServiceKey = netmodel.Key

// Rate models a scanning link rate for wall-time estimates.
type Rate = scanner.Rate

// GenerateUniverse builds a deterministic synthetic Internet. It panics
// on invalid parameters; NewUniverse returns the error instead.
func GenerateUniverse(p netmodel.Params) *netmodel.Universe { return netmodel.Generate(p) }

// NewUniverse builds a deterministic synthetic Internet, validating the
// parameters instead of panicking. Use it wherever the parameters
// crossed a trust boundary, such as command-line flags.
func NewUniverse(p netmodel.Params) (*netmodel.Universe, error) { return netmodel.GenerateChecked(p) }

// SmallUniverseParams returns a small universe configuration suitable for
// examples and tests.
func SmallUniverseParams(seed int64) netmodel.Params { return netmodel.TestParams(seed) }

// DemoUniverseParams derives a universe configuration from the three
// knobs the command-line tools expose (seed, announced /16 count, host
// density). gps and gpsd share this recipe: gpsd's checkpoints pin only
// these three values, so both commands must derive identical universes
// from them.
func DemoUniverseParams(seed int64, prefixes int, density float64) netmodel.Params {
	p := netmodel.DefaultParams(seed)
	p.NumPrefix16 = prefixes
	p.NumASes = max(4, prefixes/2)
	p.HostDensity = density
	return p
}

// SnapshotCensys captures a Censys-style ground truth: 100% scans of the
// top-k most popular ports.
func SnapshotCensys(u *netmodel.Universe, k int) *Dataset { return dataset.SnapshotCensys(u, k) }

// SnapshotAllPorts captures an LZR-style ground truth: a uniform random
// sample of the address space scanned across all 65K ports.
func SnapshotAllPorts(u *netmodel.Universe, fraction float64, seed int64) *Dataset {
	return dataset.SnapshotLZR(u, fraction, seed)
}

// NewGroundTruth indexes a dataset for evaluation.
func NewGroundTruth(d *Dataset) *metrics.GroundTruth { return metrics.NewGroundTruth(d) }

// Evaluate replays a result's discovery log against a held-out test set
// and returns the final coverage point plus the sampled curve.
func Evaluate(res *Result, testSet *Dataset, spaceSize uint64) (metrics.Point, metrics.Curve) {
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

// DefaultChurn returns churn parameters tuned to the paper's 10-day
// measurement (§3).
func DefaultChurn(seed int64) netmodel.ChurnParams { return netmodel.DefaultChurn(seed) }

// ApplyChurn advances the universe one churn step, returning the evolved
// universe; the input is unmodified.
func ApplyChurn(u *netmodel.Universe, p netmodel.ChurnParams) *netmodel.Universe {
	return netmodel.Churn(u, p)
}

// ContinuousConfig parameterizes the continuous scanning subsystem.
type ContinuousConfig = continuous.Config

// KnownService is one tracked service in the continuous inventory.
type KnownService = continuous.Entry

// ShardConfig parameterizes the sharded continuous coordinator.
type ShardConfig = shard.Config

// NewShardCoordinator creates a sharded continuous coordinator — N
// continuous runners, one per hash partition of the address space,
// running their epochs concurrently and merging their inventories into a
// single global view — seeded with an initial observation set.
func NewShardCoordinator(seed *Dataset, cfg ShardConfig) *shard.Coordinator {
	return shard.NewCoordinator(seed, cfg)
}

// InventoryPublisher atomically swaps inventory snapshots under
// concurrent readers: the lock-free handoff between the scan loop and
// the query engine.
type InventoryPublisher = serve.Publisher

// NewInventorySnapshot indexes a merged inventory as of a committed
// epoch into an immutable snapshot with secondary indexes by host, port,
// /16 prefix and ASN. The input map is read, never retained.
func NewInventorySnapshot(epoch int, inv map[ServiceKey]*KnownService) *serve.Snapshot {
	return serve.NewSnapshot(epoch, inv)
}

// NewInventoryServer wraps a publisher in the HTTP query API (/v1/host,
// /v1/port, /v1/asn, /v1/prefix, /v1/ports, /v1/stats, /v1/healthz).
func NewInventoryServer(pub *InventoryPublisher) *serve.Server {
	return serve.NewServer(pub)
}
