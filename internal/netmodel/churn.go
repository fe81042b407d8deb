package netmodel

import (
	"gps/internal/asndb"
)

// ChurnParams controls how the universe evolves between two observation
// points. The paper (§3) measures that over 10 days, 9% of all services and
// 15% of normalized services disappear — uncommon-port services churn
// faster because DHCP reassignment and NAT reconfiguration move them.
type ChurnParams struct {
	// ServiceLoss is the base probability any service disappears.
	ServiceLoss float64
	// ForwardedLoss is the probability a port-forwarded (random-port)
	// service disappears; these churn fastest.
	ForwardedLoss float64
	// HostLoss is the probability an entire host goes dark (address
	// reassignment).
	HostLoss float64
	Seed     int64
}

// DefaultChurn returns parameters tuned to the paper's 10-day measurement.
func DefaultChurn(seed int64) ChurnParams {
	return ChurnParams{ServiceLoss: 0.05, ForwardedLoss: 0.22, HostLoss: 0.025, Seed: seed}
}

// Churn returns a new universe derived from u with services and hosts
// removed per the parameters. The input universe is not modified; hosts
// that survive unchanged are shared between the two universes.
//
// Churn is partition-stable: every host draws its coin flips from its
// own (churn seed, IP) sub-seed, never from a stream shared across
// hosts, so churning a partitioned universe yields exactly the full
// universe's churn restricted to the owned addresses. This is what lets
// a shard worker replay churn over only the hosts it holds and still
// agree byte-for-byte with the full-world run.
func Churn(u *Universe, p ChurnParams) *Universe {
	out := &Universe{
		ases:     u.ases,
		routes:   u.routes,
		prefixes: u.prefixes,
		hosts:    make(map[asndb.IP]*Host, len(u.hosts)),
		seed:     u.seed,
		part:     u.part,
	}
	for _, h := range u.hostList {
		rng := newRNG(p.Seed, "churn", uint64(h.IP))
		if rng.Float64() < p.HostLoss {
			continue
		}
		// Walk services in port order, so the host rng's coin flips fall
		// on the same services every run. The kept services are copied
		// only once one is lost.
		var kept []Service
		lost := 0
		for i := range h.services {
			svc := &h.services[i]
			loss := p.ServiceLoss
			if svc.Forwarded {
				loss = p.ForwardedLoss
			}
			switch {
			case rng.Float64() < loss:
				if lost == 0 {
					kept = append(make([]Service, 0, len(h.services)-1), h.services[:i]...)
				}
				lost++
			case lost > 0:
				kept = append(kept, *svc)
			}
		}
		if lost == 0 {
			out.insertHost(h)
			continue
		}
		if len(kept) == 0 && h.pseudoTmpl == nil {
			continue // every service lost: host is gone
		}
		nh := *h
		nh.services = kept
		out.insertHost(&nh)
	}
	out.finalize()
	return out
}
