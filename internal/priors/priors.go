// Package priors implements GPS's third phase (§5.3): predicting the
// *first* service on every responsive host. Only network-layer information
// is available for hosts outside the seed set, so GPS extrapolates each
// seed service to its surrounding subnetwork: it selects, per seed host,
// the single most predictive service (the one whose features best predict
// the host's remaining services), groups the resulting (port, subnet)
// tuples, and orders them by how many seed services they help predict.
// Exhaustively scanning that ordered "priors scan list" finds the anchor
// service on each host that phase four uses to predict everything else.
package priors

import (
	"sort"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/engine"
	"gps/internal/probmodel"
)

// Target is one entry of the priors scan list: exhaustively scan Subnet on
// Port. Coverage is how many seed services this tuple helps predict — the
// list is ordered by it (maximal coverage first).
type Target struct {
	Port     uint16
	Subnet   asndb.Prefix
	Coverage int
}

// List is the ordered priors scan list.
type List struct {
	Targets []Target
	// StepBits is the subnet size used ("scanning step size"); /0 means
	// whole-space scans per port, /20 means small precise steps.
	StepBits uint8
}

// tupleKey groups targets during construction.
type tupleKey struct {
	port   uint16
	subnet asndb.Prefix
}

// Build runs the §5.3 algorithm over the seed hosts the model was built
// from (it panics on any other host, see probmodel.Model.SeedBest):
//
//  1. Hosts with one service contribute (their port, their subnet).
//  2. Hosts with several services contribute, for every service A, the
//     port B whose condition maximizes P(A) — the anchor service.
//  3. Tuples are grouped and ranked by the number of seed services they
//     help predict.
//
// Step 2's best conditions are the model's own (SeedBest), so Build only
// groups them, in one sequential pass that needs no engine.
func Build(m *probmodel.Model, hosts []dataset.HostGroup, stepBits uint8, _ engine.Config) List {
	counts := make(map[tupleKey]int)
	for i, h := range hosts {
		subnet := asndb.SubnetOf(h.IP, stepBits)
		for a, best := range m.SeedBest(i, h) {
			// A service no pattern predicts — a host's sole service
			// among them (step 1) — must anchor itself.
			port := h.Records[a].Port
			if best.Cond != probmodel.NoCond {
				port = m.Port(best.Cond)
			}
			counts[tupleKey{port: port, subnet: subnet}]++
		}
	}
	targets := make([]Target, 0, len(counts))
	for k, v := range counts {
		targets = append(targets, Target{Port: k.port, Subnet: k.subnet, Coverage: v})
	}
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].Coverage != targets[j].Coverage {
			return targets[i].Coverage > targets[j].Coverage
		}
		if targets[i].Port != targets[j].Port {
			return targets[i].Port < targets[j].Port
		}
		return targets[i].Subnet.Addr < targets[j].Subnet.Addr
	})
	return List{Targets: targets, StepBits: stepBits}
}
