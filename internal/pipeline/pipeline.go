// Package pipeline implements the GPS batch pipeline: phases 2-4 of the
// paper (model, priors scan, prediction scan) executed once against a
// frozen universe snapshot. The root gps package re-exports everything
// here as its public API; the continuous subsystem drives the same
// pipeline epoch after epoch against an evolving universe.
package pipeline

import (
	"fmt"
	"time"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/engine"
	"gps/internal/features"
	"gps/internal/lzr"
	"gps/internal/netmodel"
	"gps/internal/predict"
	"gps/internal/priors"
	"gps/internal/probmodel"
	"gps/internal/scanner"
	"gps/internal/zgrab"
)

// Config parameterizes a GPS run. The zero value is usable: it scans with
// a /16 step size, every feature family, the paper's probability floor,
// and full parallelism.
type Config struct {
	// StepBits is the scanning step size (§5.3): the prefix length GPS
	// exhaustively scans around each seed service. Smaller prefixes
	// (larger StepBits) are more precise but recall less. 0 means the
	// default /16.
	StepBits uint8
	// StepZero forces a /0 step (whole-space scans per port); needed
	// because StepBits == 0 selects the default.
	StepZero bool
	// Workers caps parallelism; 0 uses every core. Workers=1 reproduces
	// the paper's single-core measurements (§6.5).
	Workers int
	// Families selects the conditional-probability families (default
	// all four).
	Families probmodel.FamilySet
	// Floor overrides the 1e-5 probability floor; negative disables it.
	Floor float64
	// MinSupport overrides the minimum seed-host support a pattern needs
	// (default 2); negative disables the requirement.
	MinSupport int
	// AppKeys restricts the application-layer features used; nil allows
	// all 25 features of Table 1.
	AppKeys []features.Key
	// Budget caps the probes spent on the priors and prediction scans
	// (the bandwidth constraint of Equation 3); 0 means unlimited.
	Budget uint64
	// Seed drives scan-order randomization.
	Seed int64
	// ShardIndex/ShardCount restrict the scan phases to one partition of
	// an n-way hash split of the address space (asndb.ShardOf): the run
	// probes, fingerprints, and predicts only the addresses its shard
	// owns, spending ~1/ShardCount of the bandwidth. Model training uses
	// the seed set as given — the coordinator (internal/shard) decides
	// whether to broadcast the full seed or partition it. ShardCount <= 1
	// disables sharding.
	ShardIndex int
	ShardCount int
	// ExactShardCounts is ignored: a sharded run's prefix scans always
	// account the addresses the shard owns, so per-shard probe counters
	// sum exactly to the unsharded run's. The field stays only because
	// cmd/gpsbench/epochdist.go assigns it, and goes when a benchmark PR
	// drops that assignment.
	ExactShardCounts bool
}

// EffectiveStep resolves the configured step size: StepZero wins, then an
// explicit StepBits, then the default /16.
func (c Config) EffectiveStep() uint8 {
	if c.StepZero {
		return 0
	}
	if c.StepBits == 0 {
		return 16
	}
	return c.StepBits
}

// engine derives the compute-engine configuration.
func (c Config) engine() engine.Config { return engine.Config{Workers: c.Workers} }

// sharded reports whether the run is restricted to one shard.
func (c Config) sharded() bool { return c.ShardCount > 1 }

// Phase identifies which scan phase discovered a service.
type Phase uint8

// Scan phases.
const (
	PhasePriors Phase = iota
	PhasePredict
)

var phaseNames = [...]string{"priors", "predict"}

// String names the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Discovery is one service found by the scans, annotated with the
// cumulative probe count at the moment of discovery: the raw material of
// every coverage-vs-bandwidth curve in the evaluation.
type Discovery struct {
	Key    netmodel.Key
	Phase  Phase
	Probes uint64 // cumulative scan probes when found (excludes seed collection)
	P      float64
}

// Timings records wall time per pipeline stage (Table 2's rows).
type Timings struct {
	Model       time.Duration // building conditional probabilities and every seed service's best condition
	PriorsList  time.Duration // computing the priors scan list
	PriorsScan  time.Duration // executing the priors scan (simulated)
	MPF         time.Duration // building the most-predictive-features list
	Predictions time.Duration // computing the predictions list
	PredictScan time.Duration // executing the prediction scan (simulated)
}

// Compute returns the purely computational time: the part BigQuery
// parallelizes (model + priors list + MPF + predictions).
func (t Timings) Compute() time.Duration {
	return t.Model + t.PriorsList + t.MPF + t.Predictions
}

// Result is everything a GPS run produces.
type Result struct {
	Model       *probmodel.Model
	PriorsList  priors.List
	Anchors     []dataset.Record      // services found by the priors scan
	Predictions []predict.Prediction  // ordered predictions list
	Discoveries []Discovery           // ordered discovery log
	Found       map[netmodel.Key]bool // every service discovered by the scans

	SeedProbes    uint64 // bandwidth the seed collection cost (if fresh)
	PriorsProbes  uint64 // bandwidth of the priors scan
	PredictProbes uint64 // bandwidth of the prediction scan
	Middleboxes   int    // responses LZR discarded as middleboxes
	Timings       Timings

	// hosts are the seed host groups Model was built from, held from
	// Train to Scan: the priors and MPF lists read them through
	// Model.SeedBest.
	hosts []dataset.HostGroup
}

// TotalScanProbes returns priors + prediction scan bandwidth.
func (r *Result) TotalScanProbes() uint64 { return r.PriorsProbes + r.PredictProbes }

// CollectSeed gathers a fresh seed set: a uniform random sample of the
// address space scanned across all 65K ports (§5.1). The returned
// dataset's CollectionProbes records the bandwidth this cost.
func CollectSeed(u *netmodel.Universe, fraction float64, seed int64) *dataset.Dataset {
	d := dataset.SnapshotLZR(u, fraction, seed)
	d.Name = "seed"
	return d
}

// Run executes phases 2-4 of GPS against the universe, training on
// seedSet: Train, then Scan. The seed set is typically either
// CollectSeed output or the seed half of a dataset split (§6.1).
func Run(u *netmodel.Universe, seedSet *dataset.Dataset, cfg Config) (*Result, error) {
	res, err := Train(seedSet, cfg, nil)
	if err != nil {
		return nil, err
	}
	if err := Scan(u, res, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// Train runs phase 2: it groups the seed set by host and builds the
// probabilistic model, compiled by run.Recompile and left in run for the
// next Train (zero, or at twice the conditions the seed set exhibits: a
// fresh dictionary). A nil run, Run's, has Build compile it and keeps no
// seed records for Resolve: few anchors of a small seed are in it. The
// result is ready for Scan and holds nothing else yet. The seed set must
// be a strict (IP, port) run, as every dataset constructor emits: its
// host groups are slices of it.
func Train(seedSet *dataset.Dataset, cfg Config, run *probmodel.Compiled) (*Result, error) {
	if seedSet.NumServices() == 0 {
		return nil, fmt.Errorf("gps: empty seed set")
	}
	for i := 1; i < len(seedSet.Records); i++ {
		if prev, k := seedSet.Records[i-1].Key(), seedSet.Records[i].Key(); prev.Compare(k) >= 0 {
			return nil, fmt.Errorf("gps: seed record %d %v is at or before %v: not a strict (IP, port) run", i, k, prev)
		}
	}
	res := &Result{SeedProbes: seedSet.CollectionProbes, hosts: seedSet.ByHost()}
	start := time.Now()
	mcfg := probmodel.Config{
		Families:   cfg.Families,
		Floor:      cfg.Floor,
		AppKeys:    cfg.AppKeys,
		MinSupport: cfg.MinSupport,
		Engine:     cfg.engine(),
	}
	if run == nil {
		res.Model = probmodel.Build(mcfg, res.hosts)
	} else {
		if run.Dict == nil {
			run.Dict = probmodel.NewDict(mcfg)
		}
		*run = run.Recompile(seedSet.Records)
		res.Model = run.Build(res.hosts)
		if res.Model.NumIDs() > 2*res.Model.NumConds() {
			*run = probmodel.Compiled{}
		}
	}
	res.Timings.Model = time.Since(start)
	return res, nil
}

// Scan runs phases 3-4 on a Train result: the priors scan, then the
// prediction scan. It fills in the rest of res and drops the seed host
// groups, so it runs once per Train.
func Scan(u *netmodel.Universe, res *Result, cfg Config) error {
	if cfg.sharded() && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount) {
		// An out-of-range index owns nothing: the run would spend its
		// probe share and silently find zero services.
		return fmt.Errorf("gps: shard index %d out of range [0, %d)", cfg.ShardIndex, cfg.ShardCount)
	}
	eng := cfg.engine()
	hosts := res.hosts
	res.hosts = nil

	// Phase 3a: the priors scan list.
	start := time.Now()
	res.PriorsList = priors.Build(res.Model, hosts, cfg.EffectiveStep(), eng)
	res.Timings.PriorsList = time.Since(start)

	// Phase 3b: execute the priors scan, fingerprint, and grab features.
	// A sharded run probes only the addresses its partition owns; the
	// scanner enforces the split and accounts the proportional bandwidth.
	//
	// Two passes. The first probes every target in order under the
	// budget and keeps each target's responders and the cumulative probe
	// count after it. The second fingerprints and grabs every responder
	// into Found, Anchors and Discoveries, all sized to the responder
	// total up front: grown by append, each would allocate several times
	// its final size and feed the collector. Fingerprints and grabs are
	// not scan probes, so the count recorded after a target's scan is
	// the Probes of each of its discoveries.
	start = time.Now()
	sc := scanner.NewSharded(u, cfg.ShardIndex, cfg.ShardCount)
	type scanned struct {
		port   uint16
		end    int    // responders[prev.end:end] answered this target
		probes uint64 // cumulative probes after the target's scan
	}
	var (
		responders []asndb.IP
		scans      []scanned
	)
	for _, tgt := range res.PriorsList.Targets {
		if cfg.Budget > 0 && sc.Probes() >= cfg.Budget {
			break
		}
		// Clamp the step to announced space: a /0 step means "scan the
		// whole announced Internet on this port", not all 2^32.
		for _, sub := range u.AnnouncedWithin(tgt.Subnet) {
			responders = append(responders, sc.ScanPrefixFast(sub, tgt.Port, cfg.Seed)...)
		}
		scans = append(scans, scanned{port: tgt.Port, end: len(responders), probes: sc.Probes()})
	}
	fp := lzr.New(u)
	gr := zgrab.New(u)
	res.Found = make(map[netmodel.Key]bool, len(responders))
	res.Anchors = make([]dataset.Record, 0, len(responders))
	res.Discoveries = make([]Discovery, 0, len(responders))
	begin := 0
	for _, s := range scans {
		for _, ip := range responders[begin:s.end] {
			r := fp.Fingerprint(ip, s.port)
			if r.Status == lzr.StatusMiddlebox {
				res.Middleboxes++
				continue
			}
			if r.Status != lzr.StatusService {
				continue
			}
			g, ok := gr.Grab(ip, s.port)
			if !ok {
				continue
			}
			k := netmodel.Key{IP: ip, Port: s.port}
			if res.Found[k] {
				continue
			}
			res.Found[k] = true
			asn, _ := u.ASNOf(ip)
			res.Anchors = append(res.Anchors, dataset.Record{
				IP: ip, Port: s.port, Proto: g.Proto, Feats: g.Feats,
				ASN: asn, TTL: g.TTL,
			})
			res.Discoveries = append(res.Discoveries, Discovery{
				Key: k, Phase: PhasePriors, Probes: s.probes,
			})
		}
		begin = s.end
	}
	res.PriorsProbes = sc.Probes()
	res.Timings.PriorsScan = time.Since(start)

	// Phase 4a: the most-predictive-feature-values list.
	start = time.Now()
	mpf := predict.BuildMPF(res.Model, hosts, eng)
	res.Timings.MPF = time.Since(start)

	// Phase 4b: the predictions list.
	start = time.Now()
	res.Predictions = predict.Predict(res.Model, mpf, res.Anchors,
		func(k netmodel.Key) bool { return res.Found[k] }, eng)
	res.Timings.Predictions = time.Since(start)

	// Phase 4c: scan the predictions in descending probability.
	start = time.Now()
	for _, p := range res.Predictions {
		if cfg.Budget > 0 && sc.Probes() >= cfg.Budget {
			break
		}
		k := p.Key()
		if res.Found[k] {
			continue
		}
		if !sc.Probe(p.IP, p.Port) {
			continue
		}
		r := fp.Fingerprint(p.IP, p.Port)
		if r.Status == lzr.StatusMiddlebox {
			res.Middleboxes++
			continue
		}
		if r.Status != lzr.StatusService {
			continue
		}
		res.Found[k] = true
		res.Discoveries = append(res.Discoveries, Discovery{
			Key: k, Phase: PhasePredict, Probes: sc.Probes(), P: p.P,
		})
	}
	res.PredictProbes = sc.Probes() - res.PriorsProbes
	res.Timings.PredictScan = time.Since(start)
	return nil
}
