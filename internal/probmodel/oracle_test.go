package probmodel

import (
	"fmt"
	"math/rand"
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

// TestModelMatchesOracle: on random populations, under every
// configuration and for 1, 2 and 8 workers, the interned model counts,
// divides and breaks ties exactly as the string-keyed oracle does —
// including for hosts whose feature values the seed never showed.
func TestModelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	hosts := modeltest.Hosts(rng, 300)
	strangers := modeltest.Anchors(rng, 60)
	ports := append(append([]uint16(nil), modeltest.Ports...), 1, 9999)
	for ci, cfg := range oracleConfigs() {
		o := buildOracle(cfg, hosts)
		for _, workers := range []int{1, 2, 8} {
			cfg.Engine = engineCfg(workers)
			m := Build(cfg, hosts)
			name := fmt.Sprintf("config %d workers %d", ci, workers)

			if m.NumConds() != len(o.condHosts) || m.NumPairs() != len(o.pairHosts) {
				t.Fatalf("%s: %d conds %d pairs; oracle %d and %d", name,
					m.NumConds(), m.NumPairs(), len(o.condHosts), len(o.pairHosts))
			}
			if in, out := m.Stats(); in != 2*uint64(len(hosts)) || out != o.emitted {
				t.Errorf("%s: Stats() = %d, %d; oracle %d, %d", name, in, out, 2*len(hosts), o.emitted)
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

			var s Scratch
			check := func(h dataset.HostGroup) {
				all := m.HostBest(h, &s)
				for i, ra := range h.Records {
					want, wantP, wantOK := o.bestCondForHost(h, ra.Port)
					got, gotP, gotOK := m.BestCondForHost(h, ra.Port)
					if got != want || gotP != wantP || gotOK != wantOK {
						t.Fatalf("%s: BestCondForHost(%v, %d) = %v %v %v; oracle %v %v %v", name,
							h.IP, ra.Port, got, gotP, gotOK, want, wantP, wantOK)
					}
					if (all[i].Cond != NoCond) != wantOK || all[i].P != wantP ||
						(wantOK && m.Cond(all[i].Cond) != want) {
						t.Fatalf("%s: HostBest(%v)[%d] = %+v; oracle %v %v %v", name, h.IP, i, all[i], want, wantP, wantOK)
					}
				}
			}
			for _, h := range hosts {
				check(h)
			}
			// Hosts outside the seed: a pair of strangers on one address.
			for i := 0; i+1 < len(strangers); i += 2 {
				a, b := strangers[i], strangers[i+1]
				if a.Port == b.Port {
					continue
				}
				b.IP, b.ASN = a.IP, a.ASN
				check(dataset.HostGroup{IP: a.IP, Records: []dataset.Record{a, b}})
			}
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
// call, Resolve and ProbID touch only the model's tables and the caller's
// scratch.
func TestQueriesAllocateNothing(t *testing.T) {
	hosts := modeltest.Hosts(rand.New(rand.NewSource(16)), 400)
	m := Build(Config{}, hosts)
	var s Scratch
	for _, h := range hosts { // let the scratch reach its size
		m.HostBest(h, &s)
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, h := range hosts {
			m.HostBest(h, &s)
			m.Resolve(h.Records[0], &s)
		}
	}); n != 0 {
		t.Errorf("HostBest + Resolve allocate %v times per pass over the hosts", n)
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
				best := m.HostBest(h, &s)
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
				for _, c := range m.CondsOf(r) {
					if m.Prob(c, 80) != o.prob(c, 80) {
						t.Errorf("stranger %v: %v disagrees with the oracle", r.IP, c)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
