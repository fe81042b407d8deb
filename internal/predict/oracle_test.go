package predict

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"gps/internal/dataset"
	"gps/internal/engine"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/probmodel"
	"gps/internal/probmodel/modeltest"
)

// Entry is one MPF rule in display form: when a discovered service matches
// Cond, predict Port on the same host with probability P.
type Entry struct {
	Cond probmodel.Cond
	Port uint16
	P    float64
}

// compareEntries orders rules by descending probability, then ascending
// port, then condition field by field.
func compareEntries(a, b Entry) int {
	if a.P != b.P {
		return cmp.Compare(b.P, a.P)
	}
	if a.Port != b.Port {
		return cmp.Compare(a.Port, b.Port)
	}
	x, y := a.Cond, b.Cond
	if x.Port != y.Port {
		return cmp.Compare(x.Port, y.Port)
	}
	if x.AppKey != y.AppKey {
		return cmp.Compare(x.AppKey, y.AppKey)
	}
	if x.AppVal != y.AppVal {
		return cmp.Compare(x.AppVal, y.AppVal)
	}
	if x.NetKey != y.NetKey {
		return cmp.Compare(x.NetKey, y.NetKey)
	}
	return cmp.Compare(x.NetVal, y.NetVal)
}

// Entries returns every rule of the list in display form, ordered by
// compareEntries: the list as the oracle holds it.
func (m *MPF) Entries() []Entry {
	var out []Entry
	for id := 0; id+1 < len(m.rowOff); id++ {
		rules := m.rulesOf(probmodel.CondID(id))
		if len(rules) == 0 {
			continue
		}
		c := m.model.Cond(probmodel.CondID(id))
		for _, r := range rules {
			out = append(out, Entry{Cond: c, Port: r.port, P: r.p})
		}
	}
	slices.SortFunc(out, compareEntries)
	return out
}

// oracleMPF is the list as it was before it was indexed by CondID: a map
// keyed by the display-form condition, strings included, filled through
// the model's Cond-keyed API (which probmodel's own oracle test pins).
type oracleMPF struct {
	byCond map[probmodel.Cond][]Entry
	n      int
}

type oracleRule struct {
	cond probmodel.Cond
	port uint16
}

func buildOracleMPF(m *probmodel.Model, hosts []dataset.HostGroup) *oracleMPF {
	pairs := map[oracleRule]float64{}
	for _, h := range hosts {
		if len(h.Records) < 2 {
			continue
		}
		for _, ra := range h.Records {
			if best, p, ok := m.BestCondForHost(h, ra.Port); ok {
				pairs[oracleRule{best, ra.Port}] = p
			}
		}
	}
	out := &oracleMPF{byCond: map[probmodel.Cond][]Entry{}, n: len(pairs)}
	for k, p := range pairs {
		out.byCond[k.cond] = append(out.byCond[k.cond], Entry{Cond: k.cond, Port: k.port, P: p})
	}
	for _, entries := range out.byCond {
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].P != entries[j].P {
				return entries[i].P > entries[j].P
			}
			return entries[i].Port < entries[j].Port
		})
	}
	return out
}

func (o *oracleMPF) entries() []Entry {
	var out []Entry
	for _, es := range o.byCond {
		out = append(out, es...)
	}
	slices.SortFunc(out, compareEntries)
	return out
}

// predict maps each anchor through the rules keyed on its conditions.
// Only a condition the seed exhibited can key a rule, so the conditions
// are Resolve's, which probmodel's oracle holds to the display-form
// enumeration.
func (o *oracleMPF) predict(m *probmodel.Model, anchors []dataset.Record, known func(netmodel.Key) bool) []Prediction {
	preds := map[netmodel.Key]float64{}
	var s probmodel.Scratch
	for _, r := range anchors {
		for _, id := range m.Resolve(r, &s) {
			for _, e := range o.byCond[m.Cond(id)] {
				k := netmodel.Key{IP: r.IP, Port: e.Port}
				if e.Port == r.Port || (known != nil && known(k)) {
					continue
				}
				if e.P > preds[k] {
					preds[k] = e.P
				}
			}
		}
	}
	var out []Prediction
	for k, p := range preds {
		out = append(out, Prediction{IP: k.IP, Port: k.Port, P: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		if out[i].IP != out[j].IP {
			return out[i].IP < out[j].IP
		}
		return out[i].Port < out[j].Port
	})
	return out
}

func equalEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMPFMatchesOracle: on random populations the CondID-indexed list
// holds the rules the Cond-keyed map held, in the same order per
// condition and overall, and Predict maps anchors through it to the same
// predictions — anchors carrying values the seed never showed included —
// for 1, 2 and 8 workers.
func TestMPFMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	hosts := modeltest.Hosts(rng, 300)
	anchors := modeltest.Anchors(rng, 200)
	for _, h := range hosts[:100] { // seed hosts are re-found by the priors scan too
		anchors = append(anchors, h.Records[0])
	}
	known := func(k netmodel.Key) bool { return k.Port == 443 && k.IP%2 == 0 }
	for ci, cfg := range []probmodel.Config{
		{},
		{Floor: -1, MinSupport: -1},
		{Families: probmodel.FamilySet(0).With(probmodel.FamilyT)},
		{Families: probmodel.FamilySet(0).With(probmodel.FamilyTN).With(probmodel.FamilyTAN), NetKeys: features.CandidateNetworkKeys()},
		{AppKeys: []features.Key{features.KeyProtocol, features.KeySSHBanner}},
	} {
		m := probmodel.Build(cfg, hosts)
		want := buildOracleMPF(m, hosts)
		wantAll, wantKnown := want.predict(m, anchors, nil), want.predict(m, anchors, known)
		if want.n == 0 || len(wantAll) == 0 || len(wantKnown) >= len(wantAll) {
			t.Fatalf("config %d: vacuous: %d rules, %d and %d predictions", ci, want.n, len(wantAll), len(wantKnown))
		}
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("config %d workers %d", ci, workers)
			eng := engine.Config{Workers: workers}
			mpf := BuildMPF(m, hosts, eng)
			if mpf.Len() != want.n {
				t.Fatalf("%s: %d rules; oracle %d", name, mpf.Len(), want.n)
			}
			if !equalEntries(mpf.Entries(), want.entries()) {
				t.Fatalf("%s: Entries() differs from the oracle's", name)
			}
			for _, tc := range []struct {
				known func(netmodel.Key) bool
				want  []Prediction
			}{{nil, wantAll}, {known, wantKnown}} {
				got := Predict(m, mpf, anchors, tc.known, eng)
				if len(got) != len(tc.want) {
					t.Fatalf("%s: %d predictions; oracle %d", name, len(got), len(tc.want))
				}
				for i := range got {
					if got[i] != tc.want[i] {
						t.Fatalf("%s: prediction %d = %v; oracle %v", name, i, got[i], tc.want[i])
					}
				}
			}
		}
	}
}

// TestConcurrentPredict: one model and one list read from eight
// goroutines, through Predict and through the Cond-keyed display calls.
// Run under -race.
func TestConcurrentPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	hosts := modeltest.Hosts(rng, 200)
	anchors := modeltest.Anchors(rng, 100)
	m := probmodel.Build(probmodel.Config{}, hosts)
	mpf := BuildMPF(m, hosts, engine.Config{})
	want := Predict(m, mpf, anchors, nil, engine.Config{Workers: 1})
	entries := mpf.Entries()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := Predict(m, mpf, anchors, nil, engine.Config{Workers: 1 + g%3})
			if len(got) != len(want) {
				t.Errorf("goroutine %d: %d predictions; want %d", g, len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("goroutine %d: prediction %d differs", g, i)
					return
				}
			}
			if g%2 == 0 && !equalEntries(mpf.Entries(), entries) {
				t.Errorf("goroutine %d: Entries() differs", g)
			}
		}(g)
	}
	wg.Wait()
}
