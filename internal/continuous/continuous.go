// Package continuous runs GPS as a long-lived process instead of a
// one-shot batch. The paper measures that 9% of all services and 15% of
// normalized services disappear within 10 days (§3), so any single
// gps.Run snapshot goes stale almost immediately. This package maintains
// a living inventory of known services across epochs: each epoch it
// re-verifies previously-found services (the cheapest probes with the
// highest hit rate), spends the remaining budget on discovery through the
// regular priors/predict pipeline, folds everything it saw back into the
// training set, and re-trains the probability model so predictions track
// the current service population rather than the original seed.
//
// The subsystem is deliberately universe-agnostic: callers advance the
// world (netmodel.Churn for simulation, wall-clock time in a real
// deployment) and hand each epoch the universe to scan. State checkpoints
// as GPSC (checkpoint.go) so a daemon (cmd/gpsd) can stop and resume mid-run.
package continuous

import (
	"fmt"
	"slices"
	"time"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/lzr"
	"gps/internal/metrics"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
	"gps/internal/probmodel"
	"gps/internal/scanner"
	"gps/internal/trace"
	"gps/internal/zgrab"
)

// Config parameterizes the continuous scanner.
type Config struct {
	// Budget is the probe budget of one epoch, split between
	// re-verification and discovery. 0 means unlimited.
	Budget uint64
	// ReverifyFraction is the share of the budget reserved for
	// re-verifying known services; 0 selects the default 0.25. With an
	// unlimited budget the whole known set is re-verified regardless.
	ReverifyFraction float64
	// MaxStale is how many consecutive failed re-verifications a known
	// service survives before eviction; 0 selects the default 2. A
	// service seen again before eviction resets its counter — this
	// tolerates transient unresponsiveness without forgetting slow hosts.
	MaxStale int
	// Pipeline configures the discovery phases. When Budget above is
	// set, its Budget field is overwritten each epoch with the epoch
	// budget remaining after re-verification; with an unlimited epoch
	// budget it is used as given, so a caller may still cap discovery
	// alone.
	Pipeline pipeline.Config
	// ShardIndex/ShardCount restrict the runner to one partition of an
	// n-way hash split of the address space: seeding drops records the
	// shard does not own, and every epoch's discovery pipeline scans only
	// the owned partition. The shard coordinator (internal/shard) runs
	// one such runner per partition and merges their inventories.
	// ShardCount <= 1 disables sharding.
	ShardIndex int
	ShardCount int
}

// owns reports whether this runner's shard owns ip.
func (c Config) owns(ip asndb.IP) bool {
	return asndb.ShardOwns(ip, c.ShardIndex, c.ShardCount)
}

// reverifyFraction resolves ReverifyFraction, written so NaN, which
// fails every comparison, also falls back to the default.
func (c Config) reverifyFraction() float64 {
	if !(c.ReverifyFraction > 0 && c.ReverifyFraction <= 1) {
		return 0.25
	}
	return c.ReverifyFraction
}

func (c Config) maxStale() int {
	if c.MaxStale <= 0 {
		return 2
	}
	return c.MaxStale
}

// Entry is one tracked service: the record that trains the model plus its
// observation history.
type Entry struct {
	Rec dataset.Record
	// FirstSeen and LastSeen are the epochs the service was first and
	// most recently observed alive (0 = the initial seed).
	FirstSeen, LastSeen int
	// Stale counts consecutive failed re-verifications.
	Stale int
}

// EpochStats summarizes one epoch.
type EpochStats struct {
	Epoch int
	// ReverifyProbes and DiscoveryProbes split the epoch's bandwidth.
	ReverifyProbes  uint64
	DiscoveryProbes uint64
	// Verified known services answered their re-verification; Lost did
	// not; Evicted lost entries exceeded MaxStale and were dropped.
	Verified, Lost, Evicted int
	// NewFound services entered the known set this epoch; Refreshed
	// known services were re-found by the discovery scans.
	NewFound, Refreshed int
	// TrainSize is how many records the epoch's model re-trained on.
	TrainSize int
	// KnownSize is the inventory size after the epoch.
	KnownSize int
	// Freshness is the staleness accounting of the known set.
	Freshness metrics.Freshness
	// Phases is the epoch's wall-clock phase split. Observability only
	// (see PhaseTimes): it reaches the caller with the epoch's result,
	// never a checkpoint.
	Phases PhaseTimes
}

// Probes returns the epoch's total bandwidth.
func (s EpochStats) Probes() uint64 { return s.ReverifyProbes + s.DiscoveryProbes }

// State is everything the continuous scanner knows between epochs; it is
// the unit of checkpointing. An epoch's EpochStats are returned by Epoch
// and kept by no state, so a state's size follows the inventory alone.
// A state is never written once built: Epoch builds the next one.
type State struct {
	// Epoch is the last completed epoch (0 = only seeded).
	Epoch int
	// Known is the live service inventory, one entry per service in
	// strictly increasing Rec.Key() order.
	Known []Entry
}

// Runner drives the continuous scan. It is not safe for concurrent use.
type Runner struct {
	cfg Config
	st  *State
	// run is the last training set compiled (pipeline.Train), never checkpointed.
	run probmodel.Compiled
	tel *runnerTelemetry
	// tparent is the trace context the next Epoch's phase spans parent
	// to. A shard coordinator (or a transport worker relaying a remote
	// coordinator's context) sets it before each Epoch call; when unset,
	// Epoch starts its own root span.
	tparent trace.SpanContext
}

// New creates a runner seeded with an initial observation set (typically
// pipeline.CollectSeed output or the seed half of a dataset split).
func New(seed *dataset.Dataset, cfg Config) *Runner {
	return Resume(SeedState(seed, cfg), cfg)
}

// SeedState is the epoch-0 state New starts from: the seed records the
// shard owns become the inventory and first training set. A coordinator
// that only places states on executors needs no runner of its own.
func SeedState(seed *dataset.Dataset, cfg Config) *State {
	known := make([]Entry, 0, seed.NumServices())
	for _, r := range seed.Records {
		if cfg.owns(r.IP) { // another shard's runner tracks the rest
			known = append(known, Entry{Rec: r})
		}
	}
	// Stable, so compacting keeps a key's first record in seed order.
	slices.SortStableFunc(known, func(a, b Entry) int { return a.Rec.Key().Compare(b.Rec.Key()) })
	return &State{Known: slices.CompactFunc(known, func(a, b Entry) bool { return a.Rec.Key() == b.Rec.Key() })}
}

// Resume creates a runner continuing from a checkpointed state.
func Resume(st *State, cfg Config) *Runner {
	return &Runner{cfg: cfg, st: st, tel: newRunnerTelemetry(cfg)}
}

// State returns the state the last successful Epoch built (or resumed
// from). No runner writes a state, so it may be kept and checkpointed.
func (r *Runner) State() *State { return r.st }

// SetTraceParent sets the span context the next Epoch's phase spans
// attach to — the per-shard span of a coordinator, or the RPC span id
// extracted from a remote epoch request, so phase timing lands in the
// coordinator's trace tree. The zero context restores standalone
// behavior (Epoch roots its own trace). Not safe concurrently with
// Epoch, like every Runner method.
func (r *Runner) SetTraceParent(ctx trace.SpanContext) { r.tparent = ctx }

// TrainingSet assembles the current training data: the records of every
// known service not carrying a stale mark, in the known run's strict
// (IP, port) order, so the dataset is a run and its host groups are
// slices of it. This is the set the next epoch's model re-trains on —
// the live population as currently believed, not the original seed.
func (r *Runner) TrainingSet() *dataset.Dataset { return trainingSet(r.st.Epoch, r.st.Known) }

func trainingSet(epoch int, known []Entry) *dataset.Dataset {
	d := &dataset.Dataset{Name: fmt.Sprintf("continuous-epoch%d", epoch), Records: make([]dataset.Record, 0, len(known))}
	for i := range known {
		if known[i].Stale == 0 {
			d.Records = append(d.Records, known[i].Rec)
		}
	}
	return d
}

// byLastSeen returns a run's indexes in re-verification order by one
// stable counting pass over LastSeen: least recently seen first (they are
// the most at risk of having churned), ties in the run's (IP, port) order.
func byLastSeen(known []Entry) []int {
	hi := 0
	for _, e := range known {
		hi = max(hi, e.LastSeen)
	}
	next := make([]int, hi+2) // next[s]: where the next entry seen at epoch s goes
	for _, e := range known {
		next[e.LastSeen+1]++
	}
	for s := 1; s < len(next); s++ {
		next[s] += next[s-1]
	}
	order := make([]int, len(known))
	for i, e := range known {
		order[next[e.LastSeen]] = i
		next[e.LastSeen]++
	}
	return order
}

// Epoch runs one full epoch against the universe: re-verify, re-train,
// discover, fold back. The universe is whatever the world looks like now;
// callers advance it (e.g. netmodel.Churn) between epochs. It builds a
// new state and never writes the last, so a failed epoch changes nothing.
func (r *Runner) Epoch(u *netmodel.Universe) (EpochStats, error) {
	e := r.st.Epoch + 1
	stats := EpochStats{Epoch: e}
	// Phase spans attach under the coordinator-provided parent when one
	// is set (so a distributed trace shows them beneath the per-shard
	// RPC span); a standalone runner roots its own epoch trace.
	tparent := r.tparent
	var ownSpan *trace.Span
	if !tparent.Valid() {
		ownSpan = trace.StartSpan(trace.SpanContext{}, "epoch",
			trace.Int("epoch", e), trace.Int("shard", r.cfg.ShardIndex))
		tparent = ownSpan.Context()
	}
	// Each phase ends at the clock read that starts the next, and that
	// one duration is its Phases field, its histogram sample (record)
	// and its span.
	start := time.Now()
	endPhase := func(name string, d *time.Duration, attrs ...trace.Attr) {
		now := time.Now()
		*d = now.Sub(start)
		trace.Record(tparent, name, start, *d, attrs...)
		start = now
	}

	// Phase 1: re-verify the known set, least recently seen first. One
	// SYN per known service is the cheapest bandwidth GPS can spend —
	// the hit rate is the survival rate (~91% over 10 days, §3), versus
	// a few services per million probes for blind scanning.
	sc := scanner.New(u)
	fp := lzr.New(u)
	reverifyBudget := uint64(0) // 0 = unlimited
	if r.cfg.Budget > 0 {
		reverifyBudget = uint64(r.cfg.reverifyFraction() * float64(r.cfg.Budget))
		if reverifyBudget == 0 {
			// A tiny budget must still be a budget: without the clamp a
			// truncated-to-zero share would read as "unlimited".
			reverifyBudget = 1
		}
	}
	known := slices.Clone(r.st.Known)
	for _, i := range byLastSeen(known) {
		if reverifyBudget > 0 && sc.Probes() >= reverifyBudget {
			break
		}
		ent := &known[i]
		alive := false
		if sc.Probe(ent.Rec.IP, ent.Rec.Port) {
			alive = fp.Fingerprint(ent.Rec.IP, ent.Rec.Port).Status == lzr.StatusService
		}
		stats.Freshness.Checked++
		if alive {
			ent.LastSeen = e
			ent.Stale = 0
			stats.Verified++
			stats.Freshness.Alive++
			continue
		}
		ent.Stale++
		stats.Lost++
		if ent.Stale >= r.cfg.maxStale() {
			stats.Evicted++
		}
	}
	// Only this epoch's failed checks bring an entry to MaxStale.
	known = slices.DeleteFunc(known, func(ent Entry) bool { return ent.Stale >= r.cfg.maxStale() })
	stats.ReverifyProbes = sc.Probes()
	endPhase("reverify", &stats.Phases.Reverify, trace.Int("epoch", e),
		trace.Int64("probes", int64(stats.ReverifyProbes)), trace.Int("checked", stats.Freshness.Checked))

	// Phase 2: re-train on the believed-live population, then spend the
	// remaining budget on discovery through the regular pipeline.
	train := trainingSet(e, known)
	stats.TrainSize = train.NumServices()
	discover := stats.TrainSize > 0
	pcfg := r.cfg.Pipeline
	pcfg.ShardIndex, pcfg.ShardCount = r.cfg.ShardIndex, r.cfg.ShardCount
	if r.cfg.Budget > 0 {
		if stats.ReverifyProbes >= r.cfg.Budget {
			discover = false
		} else {
			pcfg.Budget = r.cfg.Budget - stats.ReverifyProbes
		}
	}
	var (
		res *pipeline.Result
		err error
	)
	run := r.run
	if discover {
		res, err = pipeline.Train(train, pcfg, &run)
	}
	endPhase("retrain", &stats.Phases.Retrain, trace.Int("train_size", stats.TrainSize))
	if discover {
		if err == nil {
			err = pipeline.Scan(u, res, pcfg)
		}
		if err != nil {
			endPhase("discover", &stats.Phases.Discover, trace.String("error", err.Error()))
			ownSpan.FinishErr(err)
			return stats, fmt.Errorf("continuous: epoch %d discovery: %w", e, err)
		}
		stats.DiscoveryProbes = res.TotalScanProbes()
		endPhase("discover", &stats.Phases.Discover, trace.Int64("probes", int64(stats.DiscoveryProbes)))
		known = fold(u, res, e, known, &stats)
		endPhase("fold", &stats.Phases.Fold,
			trace.Int("new_found", stats.NewFound), trace.Int("refreshed", stats.Refreshed))
	}

	stats.KnownSize = len(known)
	stats.Freshness.Known = len(known)
	for _, ent := range known {
		if ent.LastSeen == e {
			stats.Freshness.Fresh++
		}
		if ent.Stale > 0 {
			stats.Freshness.Stale++
		}
	}
	r.st, r.run = &State{Epoch: e, Known: known}, run
	r.tel.record(stats)
	ownSpan.SetAttr(trace.Int("known", stats.KnownSize))
	ownSpan.Finish()
	return stats, nil
}

// fold merges a discovery run into the run known and returns the new run,
// in one forward merge-join over the discoveries and the priors-phase
// anchors, which it sorts by key (the pipeline dedups both). Anchors
// carry full records already; predict-phase discoveries are grabbed for
// their application-layer features so they can train the next model.
func fold(u *netmodel.Universe, res *pipeline.Result, epoch int, known []Entry, stats *EpochStats) []Entry {
	slices.SortFunc(res.Anchors, func(a, b dataset.Record) int { return a.Key().Compare(b.Key()) })
	slices.SortFunc(res.Discoveries, func(a, b pipeline.Discovery) int { return a.Key.Compare(b.Key) })
	gr := zgrab.New(u)
	out := make([]Entry, 0, len(known)+len(res.Discoveries))
	i, a := 0, 0
	for _, d := range res.Discoveries {
		for ; i < len(known) && known[i].Rec.Key().Compare(d.Key) < 0; i++ {
			out = append(out, known[i])
		}
		for a < len(res.Anchors) && res.Anchors[a].Key().Compare(d.Key) < 0 {
			a++
		}
		var rec dataset.Record
		if a < len(res.Anchors) && res.Anchors[a].Key() == d.Key {
			rec = res.Anchors[a]
		} else {
			g, ok := gr.Grab(d.Key.IP, d.Key.Port)
			if !ok {
				continue // vanished between scan and grab
			}
			asn, _ := u.ASNOf(d.Key.IP)
			rec = dataset.Record{
				IP: d.Key.IP, Port: d.Key.Port, Proto: g.Proto,
				Feats: g.Feats, ASN: asn, TTL: g.TTL,
			}
		}
		ent := Entry{Rec: rec, FirstSeen: epoch, LastSeen: epoch}
		if i < len(known) && known[i].Rec.Key() == d.Key {
			// Rediscovered: the new record (features may have changed),
			// no stale mark, the first sighting kept.
			ent.FirstSeen = known[i].FirstSeen
			i++
			stats.Refreshed++
		} else {
			stats.NewFound++
		}
		out = append(out, ent)
	}
	return append(out, known[i:]...)
}
