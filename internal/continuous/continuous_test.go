package continuous

import (
	"bytes"
	"errors"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
	"gps/internal/wire"
)

// testWorld builds a small universe plus a seed split for fast tests.
func testWorld(t testing.TB, seed int64) (*netmodel.Universe, *dataset.Dataset) {
	t.Helper()
	u := netmodel.Generate(netmodel.TestParams(seed))
	full := dataset.SnapshotLZR(u, 0.3, seed^0x11)
	seedSet, _ := full.Split(0.04, seed^0x22)
	eligible := seedSet.EligiblePorts(2)
	return u, seedSet.FilterPorts(eligible)
}

func testConfig() Config {
	return Config{Pipeline: pipeline.Config{Workers: 1, Seed: 7}}
}

// churned advances the universe deterministically per epoch, the way the
// daemon and the experiments do.
func churned(u *netmodel.Universe, base int64, epoch int) *netmodel.Universe {
	return netmodel.Churn(u, netmodel.DefaultChurn(base+int64(epoch)))
}

func TestEpochTracksChurn(t *testing.T) {
	u, seedSet := testWorld(t, 3)
	r := New(seedSet, testConfig())
	if got := len(r.State().Known); got != seedSet.NumServices() {
		t.Fatalf("seeded known set = %d; want %d", got, seedSet.NumServices())
	}

	world := u
	var lost int
	for e := 1; e <= 3; e++ {
		world = churned(world, 100, e)
		stats, err := r.Epoch(world)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if stats.Epoch != e {
			t.Errorf("epoch counter = %d; want %d", stats.Epoch, e)
		}
		if stats.Verified == 0 {
			t.Errorf("epoch %d verified nothing; churn survival should dominate", e)
		}
		if e == 1 && stats.NewFound == 0 {
			// Churn only removes services, so only the first epoch is
			// guaranteed to find services the seed missed.
			t.Error("epoch 1 discovered nothing beyond the seed")
		}
		if stats.ReverifyProbes == 0 || stats.DiscoveryProbes == 0 {
			t.Errorf("epoch %d probes: reverify=%d discovery=%d; want both nonzero",
				e, stats.ReverifyProbes, stats.DiscoveryProbes)
		}
		// Every known entry must actually exist in the current world or
		// carry a stale mark from a failed check.
		for _, ent := range r.State().Known {
			if ent.LastSeen == e && !world.Responsive(ent.Rec.IP, ent.Rec.Port) {
				t.Fatalf("entry %v marked fresh but unresponsive", ent.Rec.Key())
			}
		}
		lost += stats.Lost
	}
	// The paper's churn means some of the original inventory must have
	// died and been evicted or marked stale along the way.
	if lost == 0 {
		t.Error("three churn epochs lost no services; churn model broken?")
	}
}

func TestEpochBudgetSplit(t *testing.T) {
	u, seedSet := testWorld(t, 5)
	space := u.SpaceSize()
	cfg := testConfig()
	cfg.Budget = 2 * space
	cfg.ReverifyFraction = 0.25
	r := New(seedSet, cfg)
	stats, err := r.Epoch(churned(u, 200, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Probes() > cfg.Budget+space {
		// Budget enforcement is per-target granular (a priors target may
		// finish its prefix), so allow one prefix of overshoot.
		t.Errorf("epoch spent %d probes; budget %d", stats.Probes(), cfg.Budget)
	}
	if stats.ReverifyProbes > uint64(float64(cfg.Budget)*0.25)+1 {
		t.Errorf("reverify spent %d; cap was %d", stats.ReverifyProbes, uint64(float64(cfg.Budget)*0.25))
	}

	// A budget so small its re-verify share truncates to zero must still
	// be enforced, not read as "unlimited".
	tiny := testConfig()
	tiny.Budget = 2
	rt := New(seedSet, tiny)
	tstats, err := rt.Epoch(u)
	if err != nil {
		t.Fatal(err)
	}
	if tstats.ReverifyProbes > 1 {
		t.Errorf("tiny budget: reverify spent %d probes; want at most 1", tstats.ReverifyProbes)
	}
	if tstats.Probes() > tiny.Budget+1<<16 {
		// Budget checks are per priors target, so one /16 of overshoot
		// is the documented granularity.
		t.Errorf("tiny budget: epoch spent %d probes against budget %d", tstats.Probes(), tiny.Budget)
	}

	// A NaN fraction (gpsd -reverify NaN, or one carried by a placement)
	// falls back to the default share; uint64(NaN*budget) would not be a
	// cap at all.
	nan := testConfig()
	nan.Budget = 100
	nan.ReverifyFraction = math.NaN()
	rn := New(seedSet, nan)
	if n := len(rn.State().Known); n <= 25 {
		t.Fatalf("%d known services cannot overrun a 25-probe share", n)
	}
	nstats, err := rn.Epoch(u)
	if err != nil {
		t.Fatal(err)
	}
	if nstats.ReverifyProbes > 25 {
		t.Errorf("NaN fraction: reverify spent %d probes of a 100-probe budget; want at most the default 25", nstats.ReverifyProbes)
	}
}

func TestStaleEviction(t *testing.T) {
	u, seedSet := testWorld(t, 7)
	cfg := testConfig()
	cfg.MaxStale = 1 // evict on first miss
	// A fake entry that never existed in the universe must be evicted on
	// the first epoch.
	fake := netmodel.Key{IP: 1, Port: 1}
	withFake := func(cfg Config) *Runner {
		st := SeedState(seedSet, cfg)
		i, _ := find(st, fake)
		st.Known = slices.Insert(st.Known, i, Entry{Rec: dataset.Record{IP: 1, Port: 1}})
		return Resume(st, cfg)
	}
	r := withFake(cfg)
	if _, err := r.Epoch(u); err != nil {
		t.Fatal(err)
	}
	if _, ok := find(r.State(), fake); ok {
		t.Error("dead entry survived MaxStale=1 eviction")
	}

	// With MaxStale=2 a dead entry survives one miss with a stale mark.
	r2 := withFake(testConfig())
	if _, err := r2.Epoch(u); err != nil {
		t.Fatal(err)
	}
	if i, ok := find(r2.State(), fake); !ok || r2.State().Known[i].Stale != 1 {
		t.Errorf("dead entry: present=%v; want retained with stale=1", ok)
	}
	// Stale entries must not train the model.
	for _, rec := range r2.TrainingSet().Records {
		if rec.Key() == fake {
			t.Error("stale entry leaked into the training set")
		}
	}
}

// strictRun fails the test unless the keys of s ascend strictly in
// (IP, port) order.
func strictRun[T any](t *testing.T, name string, s []T, key func(T) netmodel.Key) {
	t.Helper()
	if len(s) == 0 {
		t.Errorf("%s is empty; the check proves nothing", name)
	}
	for i := 1; i < len(s); i++ {
		if key(s[i-1]).Compare(key(s[i])) >= 0 {
			t.Errorf("%s: key %d %v is at or before %v", name, i, key(s[i]), key(s[i-1]))
			return
		}
	}
}

// TestEveryDatasetIsARun: a dataset's records are a strict (IP, port)
// run by construction, which ByHost slices and pipeline.Train requires.
// Every constructor is checked: both snapshots, both halves of a split,
// a port filter, a runner's training set after churned epochs that left
// stale entries, and SeedState, which sorts and compacts a seed set that
// is no run.
func TestEveryDatasetIsARun(t *testing.T) {
	u := netmodel.Generate(netmodel.TestParams(5))
	lzr := dataset.SnapshotLZR(u, 0.3, 17)
	seedSet, testSet := lzr.Split(0.1, 19)
	for name, d := range map[string]*dataset.Dataset{
		"SnapshotCensys": dataset.SnapshotCensys(u, 50),
		"SnapshotLZR":    lzr,
		"Split seed":     seedSet,
		"Split test":     testSet,
		"FilterPorts":    lzr.FilterPorts(lzr.EligiblePorts(2)),
	} {
		strictRun(t, name, d.Records, dataset.Record.Key)
	}

	// Each epoch re-verifies half the known set, so the training set
	// mixes entries last seen at different epochs with stale ones.
	train := seedSet.FilterPorts(seedSet.EligiblePorts(2))
	cfg := testConfig()
	cfg.Budget = uint64(2 * train.NumServices())
	r := New(train, cfg)
	world, stale, unchecked := u, 0, 0
	for e := 1; e <= 4; e++ {
		world = churned(world, 500, e)
		if _, err := r.Epoch(world); err != nil {
			t.Fatal(err)
		}
		strictRun(t, "TrainingSet", r.TrainingSet().Records, dataset.Record.Key)
		for _, ent := range r.State().Known {
			if ent.Stale > 0 {
				stale++
			} else if ent.LastSeen < e {
				unchecked++
			}
		}
	}
	if stale == 0 || unchecked == 0 {
		t.Errorf("%d stale and %d unchecked entries; want both, or the training set order is untested", stale, unchecked)
	}

	shuffled := slices.Clone(seedSet.Records)
	slices.Reverse(shuffled)
	shuffled = append(shuffled, shuffled[:len(shuffled)/2]...)
	for shard := 0; shard < 2; shard++ {
		st := SeedState(&dataset.Dataset{Records: shuffled}, Config{ShardIndex: shard, ShardCount: 2})
		strictRun(t, "SeedState", st.Known, func(e Entry) netmodel.Key { return e.Rec.Key() })
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	u, seedSet := testWorld(t, 11)
	r := New(seedSet, testConfig())
	for e := 1; e <= 2; e++ {
		if _, err := r.Epoch(churned(u, 300, e)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, r.State()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(got, r.State()) {
		t.Error("checkpoint round trip changed the state")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("GPSX____"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Error("empty checkpoint accepted")
	}
}

// TestResumeIdentical is the checkpoint half of the acceptance criterion:
// running epochs 1..k+1 straight must equal running 1..k, checkpointing,
// resuming, and running k+1.
func TestResumeIdentical(t *testing.T) {
	mkWorlds := func() []*netmodel.Universe {
		u := netmodel.Generate(netmodel.TestParams(13))
		worlds := []*netmodel.Universe{}
		w := u
		for e := 1; e <= 3; e++ {
			w = churned(w, 400, e)
			worlds = append(worlds, w)
		}
		return worlds
	}
	_, seedSet := testWorld(t, 13)

	// Straight-through run.
	a := New(seedSet, testConfig())
	for _, w := range mkWorlds() {
		if _, err := a.Epoch(w); err != nil {
			t.Fatal(err)
		}
	}

	// Checkpoint after epoch 2, resume, run epoch 3.
	b := New(seedSet, testConfig())
	worlds := mkWorlds()
	for _, w := range worlds[:2] {
		if _, err := b.Epoch(w); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, b.State()); err != nil {
		t.Fatal(err)
	}
	st, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	c := Resume(st, testConfig())
	if _, err := c.Epoch(worlds[2]); err != nil {
		t.Fatal(err)
	}

	if !statesEqual(a.State(), c.State()) {
		t.Error("resumed epoch 3 state differs from straight-through run")
	}
}

// TestResumeMatchesUninterrupted: a runner checkpointed and resumed after
// K epochs, which compiles its run afresh under a new dictionary, runs K
// more epochs to the same GPSC bytes and the same counters as the runner
// that kept its dictionary and ids throughout. Half the seed records carry
// a protocol value the universe does not serve, so the refreshes before
// the checkpoint change features: a runner that kept such a record's old
// ids would train on what the checkpoint no longer holds.
func TestResumeMatchesUninterrupted(t *testing.T) {
	const k = 2
	u, seedSet := testWorld(t, 17)
	seed := &dataset.Dataset{Records: slices.Clone(seedSet.Records)}
	for i := range seed.Records {
		if i%2 == 0 {
			r := &seed.Records[i]
			r.Feats = features.NewSet(append(slices.Clone(r.Feats), features.Value{Key: features.KeyProtocol, Val: "stale"})...)
		}
	}
	worlds := make([]*netmodel.Universe, 2*k)
	for e, w := 0, u; e < 2*k; e++ {
		w = churned(w, 700, e+1)
		worlds[e] = w
	}
	epochs := func(r *Runner, ws []*netmodel.Universe) (stats []EpochStats, blobs [][]byte) {
		for _, w := range ws {
			s, err := r.Epoch(w)
			if err != nil {
				t.Fatal(err)
			}
			s.Phases = PhaseTimes{}
			var buf bytes.Buffer
			if err := WriteCheckpoint(&buf, r.State()); err != nil {
				t.Fatal(err)
			}
			stats, blobs = append(stats, s), append(blobs, buf.Bytes())
		}
		return stats, blobs
	}

	straight := New(seed, testConfig())
	wantStats, wantBlobs := epochs(straight, worlds)

	first := New(seed, testConfig())
	_, blobs := epochs(first, worlds[:k])
	changed := 0
	for _, ent := range first.State().Known {
		if i, ok := slices.BinarySearchFunc(seed.Records, ent.Rec.Key(), func(r dataset.Record, k netmodel.Key) int { return r.Key().Compare(k) }); ok &&
			!slices.Equal(seed.Records[i].Feats, ent.Rec.Feats) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no refresh before the checkpoint changed a record's features")
	}
	st, err := ReadCheckpoint(bytes.NewReader(blobs[k-1]))
	if err != nil {
		t.Fatal(err)
	}
	gotStats, gotBlobs := epochs(Resume(st, testConfig()), worlds[k:])
	for e := range gotStats {
		if gotStats[e] != wantStats[k+e] {
			t.Errorf("epoch %d: resumed stats %+v, uninterrupted %+v", k+e+1, gotStats[e], wantStats[k+e])
		}
		if !bytes.Equal(gotBlobs[e], wantBlobs[k+e]) {
			t.Errorf("epoch %d: resumed state differs from the uninterrupted one", k+e+1)
		}
	}
}

func statesEqual(a, b *State) bool {
	return a.Epoch == b.Epoch && slices.EqualFunc(a.Known, b.Known, func(x, y Entry) bool { return reflect.DeepEqual(x, y) })
}

// find returns the index of k's entry in the state's run, or where it
// would go, and whether it is there.
func find(st *State, k netmodel.Key) (int, bool) {
	return slices.BinarySearchFunc(st.Known, k, func(e Entry, k netmodel.Key) int { return e.Rec.Key().Compare(k) })
}

// TestCheckpointRefusesVersion1: a checkpoint written before epoch
// counters left the state (testdata/golden/v1), or while it still nested
// a GPSD dataset (testdata/golden/v2), fails loudly as a GPSC bad-version
// error; there is no reader for either.
func TestCheckpointRefusesVersion1(t *testing.T) {
	for _, v := range []string{"v1", "v2"} {
		old, err := os.ReadFile("../../testdata/golden/" + v + "/GPSC.bin")
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReadCheckpoint(bytes.NewReader(old))
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Kind != wire.BadVersion || werr.Format != "GPSC" {
			t.Fatalf("%s checkpoint returned %v; want a GPSC bad-version *wire.Error", v, err)
		}
	}
}
