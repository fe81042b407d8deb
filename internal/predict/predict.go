// Package predict implements GPS's fourth phase (§5.4): predicting every
// remaining service once each host has at least one discovered anchor
// service. It builds the "most predictive feature values" (MPF) list —
// for every seed service, the feature tuple that best predicts it — and
// then maps each anchor service's feature values through that list to emit
// an ordered predictions list of (IP, port) pairs to scan.
//
// Both steps work on the model's integer condition ids (probmodel.CondID):
// the list is one row of rules per id, and an anchor is resolved to the ids
// of the conditions the seed exhibited before any rule is looked up. An
// anchor value the seed never showed has no id and so no rule; it is
// skipped, and the model is never written after Build.
package predict

import (
	"cmp"
	"slices"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/engine"
	"gps/internal/netmodel"
	"gps/internal/probmodel"
)

// rule is one MPF rule as the list stores it: when a discovered service
// matches the row's condition, predict port on the same host with
// probability p.
type rule struct {
	port uint16
	p    float64
}

// MPF is the most-predictive-feature-values list. It is indexed by the
// model's CondID, in the shape of the model's own pair table: the rules
// keyed on condition id are rules[rowOff[id]:rowOff[id+1]], by descending
// probability then ascending port. The ids are those of the model the
// list was built from and mean nothing to another one. Immutable after
// BuildMPF and safe for concurrent use.
type MPF struct {
	model  *probmodel.Model
	rowOff []uint32
	rules  []rule
}

// BuildMPF runs §5.4 step 1 over the seed hosts the model was built from
// (it panics on any other host, see probmodel.Model.SeedBest): for each
// seed service (IP, PortA) on a multi-service host, take the feature tuple
// with maximum P(PortA), which the model computed once for this list and
// the priors list, and record (tuple → PortA). Probabilities below the
// model's floor were already discarded by the model. Because *every* seed
// service contributes its best rule, every predictable pattern seen in the
// seed is guaranteed representation — the property §5.4 calls crucial.
// Collecting the rules is one sequential pass that needs no engine.
func BuildMPF(m *probmodel.Model, hosts []dataset.HostGroup, _ engine.Config) *MPF {
	// A rule packs into one integer, condition above port. Its
	// probability is a pure function of that pair, so it is looked up
	// once per distinct rule after the duplicates are gone.
	var pairs []uint64
	for i, h := range hosts {
		for a, best := range m.SeedBest(i, h) {
			if best.Cond != probmodel.NoCond {
				pairs = append(pairs, uint64(best.Cond)<<16|uint64(h.Records[a].Port))
			}
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)

	out := &MPF{model: m, rowOff: make([]uint32, m.NumIDs()+1), rules: make([]rule, len(pairs))}
	for i, pair := range pairs {
		cond, port := probmodel.CondID(pair>>16), uint16(pair)
		out.rules[i] = rule{port: port, p: m.ProbID(cond, port)}
		out.rowOff[cond+1]++
	}
	for id := 0; id < m.NumIDs(); id++ {
		out.rowOff[id+1] += out.rowOff[id]
		slices.SortFunc(out.rules[out.rowOff[id]:out.rowOff[id+1]], func(a, b rule) int {
			if a.p != b.p {
				return cmp.Compare(b.p, a.p)
			}
			return cmp.Compare(a.port, b.port)
		})
	}
	return out
}

// Len returns the number of MPF rules.
func (m *MPF) Len() int { return len(m.rules) }

// rulesOf returns the rules keyed on a condition of the list's model.
func (m *MPF) rulesOf(id probmodel.CondID) []rule {
	return m.rules[m.rowOff[id]:m.rowOff[id+1]]
}

// Prediction is one (IP, port) pair GPS will probe, with the probability
// that justified it. The predictions list is scanned in descending P so
// the most predictable services are found first (§6.3).
type Prediction struct {
	IP   asndb.IP
	Port uint16
	P    float64
}

// Key returns the (IP, port) identity.
func (p Prediction) Key() netmodel.Key { return netmodel.Key{IP: p.IP, Port: p.Port} }

// Predict runs §5.4 steps 2-3: for every anchor service discovered by the
// priors scan, resolve its feature values to the model's conditions, look
// each one up in the MPF list, and emit the predicted ports on that host.
// A feature value the seed never showed resolves to no condition: no rule
// can be keyed on it, so it predicts nothing and the model is only read.
// Duplicate (IP, port) predictions keep their maximum probability. known
// filters out services already discovered (no point re-probing them); it
// may be nil, and is called from several goroutines. mpf must have been
// built from m.
func Predict(m *probmodel.Model, mpf *MPF, anchors []dataset.Record, known func(netmodel.Key) bool, cfg engine.Config) []Prediction {
	if mpf.model != m {
		panic("predict: the MPF list was built from another model")
	}
	var out []Prediction
	for _, part := range engine.Chunks(cfg, len(anchors), func(lo, hi int) []Prediction {
		var out []Prediction
		var scratch probmodel.Scratch
		for _, r := range anchors[lo:hi] {
			for _, c := range m.Resolve(r, &scratch) {
				for _, e := range mpf.rulesOf(c) {
					if e.port == r.Port {
						continue
					}
					if known != nil && known(netmodel.Key{IP: r.IP, Port: e.port}) {
						continue
					}
					out = append(out, Prediction{IP: r.IP, Port: e.port, P: e.p})
				}
			}
		}
		return out
	}) {
		out = append(out, part...)
	}

	// Bring each (IP, port) together with its best probability first,
	// keep that one, then order the survivors for scanning.
	slices.SortFunc(out, func(a, b Prediction) int {
		if a.IP != b.IP {
			return cmp.Compare(a.IP, b.IP)
		}
		if a.Port != b.Port {
			return cmp.Compare(a.Port, b.Port)
		}
		return cmp.Compare(b.P, a.P)
	})
	out = slices.CompactFunc(out, func(a, b Prediction) bool { return a.IP == b.IP && a.Port == b.Port })
	slices.SortFunc(out, func(a, b Prediction) int {
		if a.P != b.P {
			return cmp.Compare(b.P, a.P)
		}
		if a.IP != b.IP {
			return cmp.Compare(a.IP, b.IP)
		}
		return cmp.Compare(a.Port, b.Port)
	})
	return out
}
