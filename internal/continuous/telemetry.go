package continuous

import (
	"strconv"
	"time"

	"gps/internal/metrics"
	"gps/internal/telemetry"
)

// PhaseTimes is the wall-clock split of one epoch across its phases, as
// measured by the runner that ran it: one clock read per boundary, so
// the phases abut, and each duration is also the phase's
// gps_epoch_phase_seconds sample and its span. It rides on EpochStats
// for the structured epoch log — across the shard transport too, on the
// frame that reports the epoch — and is never checkpointed. Concurrent
// shards' phases do not add, so shard.MergeStats reports the bounding
// shard's.
type PhaseTimes struct {
	Reverify time.Duration // re-probing the known set
	Retrain  time.Duration // assembling the training set and building the model (pipeline.Train)
	Discover time.Duration // the priors and prediction scans only (pipeline.Scan)
	Fold     time.Duration // merging discoveries back into the inventory
	// Shard names whose clock this is in merged stats (shard.MergeStats):
	// the shard that bounded the epoch. A runner leaves it zero.
	Shard int
}

// runnerTelemetry is one runner's pre-registered metric handles, looked
// up once at construction so the epoch hot path only touches atomics.
// All series carry a shard label; an unsharded runner reports as shard
// "0" of 1.
type runnerTelemetry struct {
	phaseReverify *telemetry.Histogram
	phaseRetrain  *telemetry.Histogram
	phaseDiscover *telemetry.Histogram
	phaseFold     *telemetry.Histogram

	reverifyProbes  *telemetry.Counter
	discoveryProbes *telemetry.Counter

	verified  *telemetry.Counter
	lost      *telemetry.Counter
	evicted   *telemetry.Counter
	newFound  *telemetry.Counter
	refreshed *telemetry.Counter

	known     *telemetry.Gauge
	fresh     *telemetry.Gauge
	stale     *telemetry.Gauge
	aliveFrac *telemetry.Gauge
}

func newRunnerTelemetry(cfg Config) *runnerTelemetry {
	shard := strconv.Itoa(cfg.ShardIndex)
	if cfg.ShardCount <= 1 {
		shard = "0"
	}
	r := telemetry.Default
	phase := func(name string) *telemetry.Histogram {
		return r.Histogram("gps_epoch_phase_seconds",
			"wall-clock time of one continuous-epoch phase",
			nil, "phase", name, "shard", shard)
	}
	event := func(name string) *telemetry.Counter {
		return r.Counter("gps_epoch_services_total",
			"inventory transitions observed by epochs",
			"event", name, "shard", shard)
	}
	invGauge := func(state string) *telemetry.Gauge {
		return r.Gauge("gps_inventory_services",
			"known-service inventory size by freshness state",
			"state", state, "shard", shard)
	}
	return &runnerTelemetry{
		phaseReverify: phase("reverify"),
		phaseRetrain:  phase("retrain"),
		phaseDiscover: phase("discover"),
		phaseFold:     phase("fold"),
		reverifyProbes: r.Counter("gps_epoch_probes_total",
			"probe bandwidth spent by epochs, split by budget side",
			"kind", "reverify", "shard", shard),
		discoveryProbes: r.Counter("gps_epoch_probes_total",
			"probe bandwidth spent by epochs, split by budget side",
			"kind", "discovery", "shard", shard),
		verified:  event("verified"),
		lost:      event("lost"),
		evicted:   event("evicted"),
		newFound:  event("new"),
		refreshed: event("refreshed"),
		known:     invGauge("known"),
		fresh:     invGauge("fresh"),
		stale:     invGauge("stale"),
		aliveFrac: r.Gauge("gps_inventory_alive_frac",
			"fraction of re-verified services still alive this epoch (survival rate)",
			"shard", shard),
	}
}

// record publishes one committed epoch's stats.
func (t *runnerTelemetry) record(stats EpochStats) {
	t.phaseReverify.Observe(stats.Phases.Reverify.Seconds())
	t.phaseRetrain.Observe(stats.Phases.Retrain.Seconds())
	t.phaseDiscover.Observe(stats.Phases.Discover.Seconds())
	t.phaseFold.Observe(stats.Phases.Fold.Seconds())
	t.reverifyProbes.Add(stats.ReverifyProbes)
	t.discoveryProbes.Add(stats.DiscoveryProbes)
	t.verified.Add(uint64(stats.Verified))
	t.lost.Add(uint64(stats.Lost))
	t.evicted.Add(uint64(stats.Evicted))
	t.newFound.Add(uint64(stats.NewFound))
	t.refreshed.Add(uint64(stats.Refreshed))
	t.setFreshness(stats.Freshness)
}

// setFreshness wires the existing evaluation-side freshness accounting
// into the runtime gauges.
func (t *runnerTelemetry) setFreshness(f metrics.Freshness) {
	t.known.Set(float64(f.Known))
	t.fresh.Set(float64(f.Fresh))
	t.stale.Set(float64(f.Stale))
	t.aliveFrac.Set(f.AliveFrac())
}
