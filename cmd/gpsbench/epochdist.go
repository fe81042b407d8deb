package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"time"

	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
	"gps/internal/shard"
	"gps/internal/shard/transport"
)

// epoch-dist: a transport.Dial coordinator drives two transport.Serve
// workers (four shards) over loopback GPST; its commit hook builds the
// snapshot, publishes it and commits it to the feed; transport.ServeFeed
// carries the delta to one serve.ReplicaServer. One op is one epoch, from
// the Coordinator.Epoch call until the epoch is replica-visible.
//
// The known inventory decays under churn (services only disappear), so a
// long sequence of epochs is not a steady state. A repetition is instead
// a fresh coordinator, feed and replica, a Seed, and the same few epochs;
// repetitions are identical, so their epochs pool.

const (
	epochShards  = 4
	epochWorkers = 2
	// epochSeedFraction of the world's hosts are known at epoch 0; the
	// epochs' discovery finds the rest.
	epochSeedFraction = 0.6
)

// epochWorld is everything a repetition consumes, generated once per
// set-up from the seed: the world at every epoch (churn precomputed, so
// it is set-up and not on the epoch clock), each worker's partition of
// it, and the seed set.
type epochWorld struct {
	cfg     shard.Config
	seedSet *dataset.Dataset
	full    []*netmodel.Universe   // full[e]: the whole world at epoch e
	parts   [][]*netmodel.Universe // parts[w][e]: worker w's partition at epoch e
	owned   [][]int                // owned[w]: worker w's shards
	taps    []*workerTap           // taps[w]: worker w's timeline, on a traced run
}

func churnSteps(u *netmodel.Universe, seed int64, epochs int) []*netmodel.Universe {
	out := []*netmodel.Universe{u}
	for e := 1; e <= epochs; e++ {
		u = netmodel.Churn(u, netmodel.DefaultChurn(seed+int64(e)))
		out = append(out, u)
	}
	return out
}

func newEpochWorld(seed int64, sc scale) *epochWorld {
	p := netmodel.TestParams(seed)
	p.NumPrefix16 = sc.epochPrefixes
	w := &epochWorld{taps: make([]*workerTap, epochWorkers)}
	w.full = churnSteps(netmodel.Generate(p), seed, sc.epochs)
	for wi := 0; wi < epochWorkers; wi++ {
		var owned []int
		for s := wi; s < epochShards; s += epochWorkers {
			owned = append(owned, s)
		}
		pp := p
		pp.Partition = &netmodel.Partition{Count: epochShards, Owned: owned}
		w.owned = append(w.owned, owned)
		w.parts = append(w.parts, churnSteps(netmodel.Generate(pp), seed, sc.epochs))
	}
	seedSet := pipeline.CollectSeed(w.full[0], epochSeedFraction, seed^0x5eed)
	w.seedSet = seedSet.FilterPorts(seedSet.EligiblePorts(2))
	w.cfg = shard.Config{
		Shards: epochShards,
		Continuous: continuous.Config{
			Budget:   20 * w.full[0].SpaceSize(),
			Pipeline: pipeline.Config{Workers: 1, Seed: 7, ExactShardCounts: true},
		},
	}
	return w
}

// shardCfg is shard s's runner configuration, as both coordinators
// derive it: the global budget sliced, the shard filter pinned.
func (w *epochWorld) shardCfg(s int) continuous.Config {
	sc := w.cfg.Continuous
	sc.Budget = shard.SliceBudget(sc.Budget, epochShards)[s]
	sc.ShardIndex, sc.ShardCount = s, epochShards
	return sc
}

// workerOf returns which worker the coordinator's round-robin assigns
// shard s to.
func workerOf(s int) int { return s % epochWorkers }

// partWorld is a worker's transport.World: the precomputed partition.
type partWorld struct {
	at  []*netmodel.Universe
	tap *workerTap
}

func (p partWorld) UniverseAt(epoch int) (*netmodel.Universe, error) {
	if p.tap != nil {
		p.tap.note(&p.tap.asked)
	}
	if epoch < 0 || epoch >= len(p.at) {
		return nil, fmt.Errorf("bench world holds epochs 0..%d, not %d", len(p.at)-1, epoch)
	}
	return p.at[epoch], nil
}

// factory resolves a coordinator's world spec to the matching
// precomputed partition.
func (w *epochWorld) factory(spec []byte) (transport.World, error) {
	_, shards, owned, err := transport.DecodeWorldSpec(spec)
	if err != nil {
		return nil, err
	}
	for wi, o := range w.owned {
		if shards == epochShards && fmt.Sprint(o) == fmt.Sprint(owned) {
			return partWorld{at: w.parts[wi], tap: w.taps[wi]}, nil
		}
	}
	return nil, fmt.Errorf("bench world has no partition %v of %d shards", owned, shards)
}

// reference runs the same epochs on an in-process shard.Coordinator and
// returns the digest of its merged inventory: what every distributed
// repetition must reproduce byte for byte.
func (w *epochWorld) reference() ([32]byte, error) {
	c := shard.NewCoordinator(w.seedSet, w.cfg)
	for e := 1; e < len(w.full); e++ {
		if _, err := c.Epoch(w.full[e]); err != nil {
			return [32]byte{}, err
		}
	}
	inv, _ := c.Inventory()
	return inventoryDigest(inv)
}

func inventoryDigest(inv map[netmodel.Key]*continuous.Entry) ([32]byte, error) {
	var buf bytes.Buffer
	if err := shard.WriteInventory(&buf, inv); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// epochDist is one set-up: the world, the worker fleet listening, and a
// first session ready for its first epoch.
type epochDist struct {
	world *epochWorld
	lis   []*countingListener
	addrs []string
	fleet group
	gpst  atomic.Int64 // bytes over the coordinator↔worker connections
	feedB atomic.Int64 // bytes over the origin→replica feed
	first *epochSession
}

// epochSession is one repetition's coordinator, feed and replica.
type epochSession struct {
	d           *epochDist
	stack       *replicaStack
	coord       *transport.Coordinator
	seedMS      float64
	bootstrapMS float64

	// The commit hook runs inside Coordinator.Epoch; these tell it which
	// op it belongs to and collect what it timed.
	r       *run
	parent  spanRef
	op      int
	commits []commitTimes                        // commits[e-1]: epoch e's hook
	invs    []map[netmodel.Key]*continuous.Entry // invs[e]: merged inventory at epoch e
	live    []liveOp                             // live[e-1]: epoch e's op
	// afterEpoch, when set, runs after each op, off the clock.
	afterEpoch func(e int)
}

// liveOp is one epoch as the clock saw it.
type liveOp struct {
	op                       int
	start, returned, visible time.Time // Epoch called, Epoch returned, replica-visible
}

func setupEpochDist(r *run) (*epochDist, error) {
	d := &epochDist{world: newEpochWorld(r.seed, r.sc)}
	for wi := 0; wi < epochWorkers; wi++ {
		lis, err := listenCounting(&d.gpst)
		if err != nil {
			d.close()
			return nil, err
		}
		if r.traced() {
			d.world.taps[wi] = &workerTap{}
			lis.tap = d.world.taps[wi]
		}
		d.lis = append(d.lis, lis)
		d.addrs = append(d.addrs, lis.addr())
		d.fleet.goFn(func() error { return transport.Serve(lis, d.world.factory, nil) })
	}
	sess, err := d.open(r)
	if err != nil {
		d.close()
		return nil, err
	}
	d.first = sess
	return d, nil
}

func (d *epochDist) close() {
	if d.first != nil {
		d.first.close()
	}
	for _, lis := range d.lis {
		lis.Close()
	}
	// Serve returns nil once its listener is closed.
	_ = d.fleet.wait()
}

// open brings one repetition's stack up: replica and feed, Dial, Seed,
// the epoch-0 commit, and the replica's bootstrap from it.
func (d *epochDist) open(r *run) (*epochSession, error) {
	stack, err := startReplicaStack(&d.feedB)
	if err != nil {
		return nil, err
	}
	s := &epochSession{d: d, stack: stack, r: r}
	s.coord, err = transport.Dial(d.addrs, d.world.cfg, []byte("gpsbench"), nil)
	if err != nil {
		stack.close()
		return nil, err
	}
	s.coord.SetCommitHook(func(epoch int, inv map[netmodel.Key]*continuous.Entry) {
		s.invs = append(s.invs, inv)
		s.commits = append(s.commits, stack.commit(s.r.tr, s.parent, s.op, epoch, inv))
	})
	s.seedMS = timed(func() { err = s.coord.Seed(d.world.seedSet) })
	if err != nil {
		s.close()
		return nil, err
	}
	inv, _ := s.coord.Inventory()
	s.invs = append(s.invs, inv)
	s.bootstrapMS = timed(func() {
		stack.commit(nil, spanRef{}, 0, 0, inv)
		err = stack.waitVisible(0)
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *epochSession) close() {
	// Close ends the workers' sessions; they go back to accepting.
	_ = s.coord.Close()
	s.stack.close()
}

// quality is what a repetition found, which must not depend on timing.
type quality struct {
	digest   [32]byte
	coverage float64 // final world's live services present in the final inventory
	hitsPerK float64 // services observed per 1000 probes
	probes   uint64
	hits     uint64
}

// repetition runs the session's epochs, charging each as one op to win,
// then checks the outputs. nextOp numbers the ops for the trace.
func (d *epochDist) repetition(r *run, s *epochSession, win *window, nextOp *int, wire *uint64) (quality, error) {
	var q quality
	epochs := len(d.world.full) - 1
	for e := 1; e <= epochs; e++ {
		r.attempted++
		*nextOp++
		s.op = *nextOp
		r.speed.read()
		root := r.tr.start(spanRef{}, s.op, "epoch-dist.op")
		wire0 := d.gpst.Load() + d.feedB.Load()
		c0 := readCounters()
		s.parent = r.tr.start(root, s.op, "transport.epoch")
		stats, err := s.coord.Epoch()
		s.parent.end()
		returned := time.Now()
		if err != nil {
			return q, err
		}
		vis := r.tr.start(root, s.op, "serve.replica_visible")
		err = s.stack.waitVisible(e)
		vis.end()
		if err != nil {
			return q, err
		}
		c1 := readCounters()
		root.end()
		win.charge(1, c0, c1)
		win.lat = append(win.lat, ms(c1.t.Sub(c0.t)))
		*wire += uint64(d.gpst.Load() + d.feedB.Load() - wire0)
		s.live = append(s.live, liveOp{op: s.op, start: c0.t, returned: returned, visible: c1.t})
		if s.afterEpoch != nil {
			s.afterEpoch(e)
		}
		q.probes += stats.Probes()
		q.hits += uint64(stats.Verified + stats.NewFound + stats.Refreshed)
	}

	inv, _ := s.coord.Inventory()
	var err error
	if q.digest, err = inventoryDigest(inv); err != nil {
		return q, err
	}
	truth := dataset.SnapshotLZR(d.world.full[epochs], 1.0, 0)
	found := 0
	for _, rec := range truth.Records {
		if _, ok := inv[rec.Key()]; ok {
			found++
		}
	}
	if n := truth.NumServices(); n > 0 {
		q.coverage = float64(found) / float64(n)
	}
	if q.probes > 0 {
		q.hitsPerK = 1000 * float64(q.hits) / float64(q.probes)
	}
	if err := s.stack.sameServedView(); err != nil {
		r.failf("%v", err)
	}
	if err := s.stack.sameInventory(); err != nil {
		r.failf("%v", err)
	}
	return q, nil
}

func runEpochDist(r *run) error {
	d, err := timeSetups(r, func() (*epochDist, error) { return setupEpochDist(r) }, (*epochDist).close)
	if err != nil {
		return err
	}
	defer d.close()
	ref, err := d.world.reference()
	if err != nil {
		return err
	}
	if r.traced() {
		return d.tracedRun(r, ref)
	}

	// The set-up's own session is the warm-up repetition: discarded.
	var nextOp int
	var wire uint64
	var warm window
	want, err := d.repetition(r, d.first, &warm, &nextOp, &wire)
	d.first.close()
	d.first = nil
	if err != nil {
		return err
	}
	r.endWarmup()
	wire = 0
	d.check(r, want, want, ref)

	var wins []window
	heap := startHeapSampler()
	for sec := r.section(1); sec.next(); {
		s, err := d.open(r)
		if err != nil {
			return err
		}
		var win window
		got, err := d.repetition(r, s, &win, &nextOp, &wire)
		s.close()
		if err != nil {
			return err
		}
		d.check(r, got, want, ref)
		wins = append(wins, win)
	}
	r.metrics["heap_peak_mb"] = heap.peakMB()
	rateMetrics(wins, r.metrics)
	latencyMetrics(wins, true, r.metrics, r.notes)
	r.metrics["wire_kb_per_op"] = float64(wire) / 1024 / float64(r.attempted)
	r.metrics["coverage_frac"] = want.coverage
	r.metrics["hits_per_kprobe"] = want.hitsPerK
	r.notes["repetitions"] = fmt.Sprint(len(wins))
	return nil
}

// check holds a repetition to the reference inventory and to the first
// repetition's quality numbers: neither may depend on timing.
func (d *epochDist) check(r *run, got, want quality, ref [32]byte) {
	if got.digest != ref {
		r.failf("merged inventory %x differs from the in-process reference %x", got.digest[:6], ref[:6])
	}
	if got.coverage != want.coverage || got.probes != want.probes || got.hits != want.hits {
		r.failf("quality varies between repetitions: coverage %v vs %v, probes %d vs %d, hits %d vs %d",
			got.coverage, want.coverage, got.probes, want.probes, got.hits, want.hits)
	}
}
