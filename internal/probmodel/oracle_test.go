package probmodel

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/probmodel/modeltest"
)

// oracle is the model as it was before conditions were interned: two maps
// keyed by the display-form Cond, its strings included, filled by walking
// CondsOf. It is the reference the integer tables are checked against.
type oracle struct {
	cfg       Config
	enabled   map[features.Key]bool
	condHosts map[Cond]uint64
	pairHosts map[oraclePair]uint64
	emitted   uint64
}

type oraclePair struct {
	cond Cond
	port uint16
}

func buildOracle(cfg Config, hosts []dataset.HostGroup) *oracle {
	o := &oracle{cfg: cfg.withDefaults(), condHosts: map[Cond]uint64{}, pairHosts: map[oraclePair]uint64{}}
	if cfg.AppKeys != nil {
		o.enabled = map[features.Key]bool{}
		for _, k := range cfg.AppKeys {
			o.enabled[k] = true
		}
	}
	for _, h := range hosts {
		for _, r := range h.Records {
			for _, c := range o.condsOf(r) {
				o.condHosts[c]++
				o.emitted++
			}
		}
		if len(h.Records) < 2 {
			continue
		}
		for _, rb := range h.Records {
			conds := o.condsOf(rb)
			for _, ra := range h.Records {
				if ra.Port == rb.Port {
					continue
				}
				for _, c := range conds {
					o.pairHosts[oraclePair{c, ra.Port}]++
					o.emitted++
				}
			}
		}
	}
	return o
}

func (o *oracle) condsOf(r dataset.Record) []Cond {
	return CondsOf(r, o.cfg.Families, o.enabled, NetFeatures(r, o.cfg.NetKeys))
}

func (o *oracle) prob(c Cond, portA uint16) float64 {
	denom := o.condHosts[c]
	if denom == 0 || denom < uint64(o.cfg.MinSupport) {
		return 0
	}
	p := float64(o.pairHosts[oraclePair{c, portA}]) / float64(denom)
	if p < o.cfg.Floor {
		return 0
	}
	return p
}

func (o *oracle) bestCondForHost(h dataset.HostGroup, portA uint16) (best Cond, p float64, ok bool) {
	for _, rb := range h.Records {
		if rb.Port == portA {
			continue
		}
		for _, c := range o.condsOf(rb) {
			if q := o.prob(c, portA); q > p {
				best, p, ok = c, q, true
			}
		}
	}
	return best, p, ok
}

// checkCounts holds m's condition and pair tables and Stats to the
// oracle's, probing every condition's row at ports.
func checkCounts(t *testing.T, name string, m *Model, o *oracle, nhosts int, ports []uint16) {
	t.Helper()
	if m.NumConds() != len(o.condHosts) || m.NumPairs() != len(o.pairHosts) {
		t.Fatalf("%s: %d conds %d pairs; oracle %d and %d", name,
			m.NumConds(), m.NumPairs(), len(o.condHosts), len(o.pairHosts))
	}
	if in, out := m.Stats(); in != 2*uint64(nhosts) || out != o.emitted {
		t.Errorf("%s: Stats() = %d, %d; oracle %d, %d", name, in, out, 2*nhosts, o.emitted)
	}
	for c, n := range o.condHosts {
		if got := m.CondHosts(c); got != n {
			t.Fatalf("%s: CondHosts(%v) = %d; oracle %d", name, c, got, n)
		}
		id, ok := m.Lookup(c)
		if !ok || m.Cond(id) != c {
			t.Fatalf("%s: %v does not round-trip through its id", name, c)
		}
		for i, port := range ports {
			want := o.prob(c, port)
			if got := m.ProbID(id, port); got != want || (i == 0 && m.Prob(c, port) != want) {
				t.Fatalf("%s: P(%d | %v) = %v; oracle %v", name, port, c, got, want)
			}
		}
	}
	for p, n := range o.pairHosts {
		id, _ := m.Lookup(p.cond)
		lo, hi := m.rowOff[id], m.rowOff[id+1]
		i, ok := slices.BinarySearch(m.pairPort[lo:hi], p.port)
		if !ok || m.pairHosts[int(lo)+i] != uint32(n) {
			t.Fatalf("%s: pair (%v, %d) not counted %d times", name, p.cond, p.port, n)
		}
	}
}

// checkSeedBest holds the best condition Build stored for every record of
// its input to the oracle's, winner and probability.
func checkSeedBest(t *testing.T, name string, m *Model, o *oracle, hosts []dataset.HostGroup) {
	t.Helper()
	for i, h := range hosts {
		all := m.SeedBest(i, h)
		if len(all) != len(h.Records) {
			t.Fatalf("%s: SeedBest(%d) has %d entries for %d records", name, i, len(all), len(h.Records))
		}
		for a, ra := range h.Records {
			want, wantP, wantOK := o.bestCondForHost(h, ra.Port)
			if (all[a].Cond != NoCond) != wantOK || all[a].P != wantP ||
				(wantOK && m.Cond(all[a].Cond) != want) {
				t.Fatalf("%s: SeedBest(%v)[%d] = %+v; oracle %v %v %v", name, h.IP, a, all[a], want, wantP, wantOK)
			}
		}
	}
}

// oracleConfigs spans every FamilySet, both AppKeys settings, both network
// key sets and the floor and support ablations.
func oracleConfigs() []Config {
	var out []Config
	for fams := FamilySet(1); fams <= AllFamilies; fams++ {
		out = append(out, Config{Families: fams})
	}
	restricted := []features.Key{features.KeyProtocol, features.KeySSHBanner}
	return append(out,
		Config{AppKeys: restricted},
		Config{NetKeys: features.CandidateNetworkKeys()},
		Config{Floor: -1, MinSupport: -1},
		Config{Floor: 0.4, MinSupport: 3, AppKeys: restricted, NetKeys: features.CandidateNetworkKeys()},
	)
}

// withRepeatedPorts returns hosts with three kinds of host a seed
// dataset can hold beside them: one whose port appears twice (the repeated
// record carries other features), one serving a single port twice, and
// one whose ports are not in ascending order.
func withRepeatedPorts(hosts []dataset.HostGroup) []dataset.HostGroup {
	out := append([]dataset.HostGroup(nil), hosts...)
	for i, h := range out {
		if len(h.Records) < 3 {
			continue
		}
		recs := append([]dataset.Record(nil), h.Records...)
		dup := recs[1]
		dup.Feats = features.NewSet(features.Value{Key: features.KeyProtocol, Val: "repeated"})
		out[i].Records = append(recs[:2:2], append([]dataset.Record{dup}, recs[2:]...)...)
		break
	}
	last := out[len(out)-1]
	r := last.Records[0]
	r.IP += 1 << 12
	out = append(out, dataset.HostGroup{IP: r.IP, Records: []dataset.Record{r, r}})
	recs := append([]dataset.Record(nil), out[0].Records...)
	slices.Reverse(recs)
	out[0].Records = recs
	return out
}

// TestModelMatchesOracle: on random populations, under every
// configuration and for 1, 2 and 8 workers, the interned model counts,
// divides and breaks ties exactly as the string-keyed oracle does —
// on seed hosts with a repeated port and for hosts whose feature values
// the seed never showed included — and stores every seed service's best
// condition as the oracle finds it.
func TestModelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	hosts := withRepeatedPorts(modeltest.Hosts(rng, 300))
	strangers := modeltest.Anchors(rng, 60)
	ports := append(append([]uint16(nil), modeltest.Ports...), 1, 9999)
	for ci, cfg := range oracleConfigs() {
		o := buildOracle(cfg, hosts)
		for _, workers := range []int{1, 2, 8} {
			cfg.Engine = engineCfg(workers)
			m := Build(cfg, hosts)
			name := fmt.Sprintf("config %d workers %d", ci, workers)
			checkCounts(t, name, m, o, len(hosts), ports)

			check := func(h dataset.HostGroup) {
				for _, ra := range h.Records {
					want, wantP, wantOK := o.bestCondForHost(h, ra.Port)
					got, gotP, gotOK := m.BestCondForHost(h, ra.Port)
					if got != want || gotP != wantP || gotOK != wantOK {
						t.Fatalf("%s: BestCondForHost(%v, %d) = %v %v %v; oracle %v %v %v", name,
							h.IP, ra.Port, got, gotP, gotOK, want, wantP, wantOK)
					}
				}
			}
			for _, h := range hosts {
				check(h)
			}
			checkSeedBest(t, name, m, o, hosts)
			// Hosts outside the seed: a pair of strangers on one address.
			for i := 0; i+1 < len(strangers); i += 2 {
				a, b := strangers[i], strangers[i+1]
				if a.Port == b.Port {
					continue
				}
				b.IP, b.ASN = a.IP, a.ASN
				check(dataset.HostGroup{IP: a.IP, Records: []dataset.Record{a, b}})
			}
			var s Scratch
			// Resolve keeps exactly the conditions the seed exhibited, in
			// CondsOf's order.
			for _, r := range strangers {
				var want []Cond
				for _, c := range o.condsOf(r) {
					if o.condHosts[c] > 0 {
						want = append(want, c)
					}
				}
				got := m.Resolve(r, &s)
				if len(got) != len(want) {
					t.Fatalf("%s: Resolve kept %d conditions; oracle %d", name, len(got), len(want))
				}
				for i, id := range got {
					if m.Cond(id) != want[i] {
						t.Fatalf("%s: Resolve[%d] = %v; oracle %v", name, i, m.Cond(id), want[i])
					}
				}
			}
		}
	}
}

// TestLookupRejectsOtherSpellings: the dictionary is keyed on integers
// parsed out of NetVal, but only the spelling Cond renders names a
// condition, as when the map was keyed on the string itself.
func TestLookupRejectsOtherSpellings(t *testing.T) {
	m := Build(Config{Floor: -1, MinSupport: -1}, handHosts())
	for _, c := range []Cond{
		{Port: 80, NetKey: features.KeyASN, NetVal: "AS01"},
		{Port: 80, NetKey: features.KeyASN, NetVal: "1"},
		{Port: 80, NetKey: features.KeySubnet16, NetVal: "10.0.0.0/17"},
		{Port: 80, NetKey: features.KeySubnet16, NetVal: "10.0.0.1/16"},
		{Port: 80, NetKey: features.KeySubnet16, NetVal: "AS1"},
		{Port: 80, AppVal: "fleetA"},
		{Port: 80, NetVal: "AS1"},
		{Port: 80, NetKey: features.KeyHTTPServer, NetVal: "fleetA"},
	} {
		if _, ok := m.Lookup(c); ok || m.Prob(c, 443) != 0 || m.CondHosts(c) != 0 {
			t.Errorf("%v names a condition", c)
		}
	}
	if m.Prob(Cond{Port: 80, NetKey: features.KeyASN, NetVal: "AS1"}, 443) != 3.0/5 {
		t.Error("the rendered spelling is not found")
	}
}

// TestQueriesAllocateNothing: in steady state the per-host best-condition
// read, Resolve and ProbID touch only the model's tables and the caller's
// scratch.
func TestQueriesAllocateNothing(t *testing.T) {
	hosts := modeltest.Hosts(rand.New(rand.NewSource(16)), 400)
	m := Build(Config{}, hosts)
	var s Scratch
	for _, h := range hosts { // let the scratch reach its size
		m.Resolve(h.Records[0], &s)
	}
	if n := testing.AllocsPerRun(20, func() {
		for i, h := range hosts {
			m.SeedBest(i, h)
			m.Resolve(h.Records[0], &s)
		}
	}); n != 0 {
		t.Errorf("SeedBest + Resolve allocate %v times per pass over the hosts", n)
	}
	id, _ := m.Lookup(Cond{Port: 80})
	if n := testing.AllocsPerRun(100, func() { m.ProbID(id, 443) }); n != 0 {
		t.Errorf("ProbID allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Prob(Cond{Port: 80}, 443) }); n != 0 {
		t.Errorf("Prob allocates %v times", n)
	}
}

// TestConcurrentQueries: one model queried from eight goroutines, the
// Cond-keyed cold path included. Run under -race: nothing may be interned
// or built lazily once Build has returned.
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	hosts := modeltest.Hosts(rng, 200)
	strangers := modeltest.Anchors(rng, 40)
	m := Build(Config{}, hosts)
	o := buildOracle(Config{}, hosts)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s Scratch
			for i := g; i < len(hosts); i += 2 {
				h := hosts[i]
				best := m.SeedBest(i, h)
				for a, ra := range h.Records {
					c, p, ok := m.BestCondForHost(h, ra.Port)
					if p != best[a].P || ok != (best[a].Cond != NoCond) {
						t.Errorf("host %v port %d: cold path %v, hot path %v", h.IP, ra.Port, p, best[a].P)
					}
					if ok && (m.Prob(c, ra.Port) != o.prob(c, ra.Port) || m.CondHosts(c) != o.condHosts[c]) {
						t.Errorf("host %v: %v disagrees with the oracle", h.IP, c)
					}
				}
			}
			for _, r := range strangers {
				m.Resolve(r, &s)
				for _, c := range o.condsOf(r) {
					if m.Prob(c, 80) != o.prob(c, 80) {
						t.Errorf("stranger %v: %v disagrees with the oracle", r.IP, c)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
