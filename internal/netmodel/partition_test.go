package netmodel

import (
	"slices"
	"testing"

	"gps/internal/asndb"
)

// hostsEqual deep-compares two hosts: identity, explicit services with
// every feature value, pseudo block, middlebox flag.
func hostsEqual(t *testing.T, a, b *Host) bool {
	t.Helper()
	if a.IP != b.IP || a.ASN != b.ASN || a.Profile != b.Profile || a.Middlebox != b.Middlebox {
		return false
	}
	if a.pseudoLo != b.pseudoLo || a.pseudoHi != b.pseudoHi ||
		(a.pseudoTmpl == nil) != (b.pseudoTmpl == nil) {
		return false
	}
	return slices.EqualFunc(a.services, b.services, func(sa, sb Service) bool {
		return sa.Port == sb.Port && sa.Proto == sb.Proto && sa.TTL == sb.TTL &&
			sa.Forwarded == sb.Forwarded && sa.Pseudo == sb.Pseudo && slices.Equal(sa.Feats, sb.Feats)
	})
}

// requireRestriction asserts sub == full restricted to the addresses
// part owns, host by host and service by service.
func requireRestriction(t *testing.T, full, sub *Universe, part *Partition) {
	t.Helper()
	owned := 0
	for _, h := range full.Hosts() {
		if !part.Owns(h.IP) {
			if _, leak := sub.HostAt(h.IP); leak {
				t.Fatalf("partitioned universe materialized unowned host %v", h.IP)
			}
			continue
		}
		owned++
		sh, ok := sub.HostAt(h.IP)
		if !ok {
			t.Fatalf("partitioned universe missing owned host %v", h.IP)
		}
		if !hostsEqual(t, h, sh) {
			t.Fatalf("owned host %v differs between full and partitioned generation", h.IP)
		}
	}
	if sub.NumHosts() != owned {
		t.Fatalf("partitioned universe holds %d hosts; full restricted to owned holds %d", sub.NumHosts(), owned)
	}
}

// TestPartitionedEqualsFullRestricted is the tentpole contract: for each
// shard of a 4-way split, generating only that partition yields exactly
// the full universe's hosts restricted to the owned addresses — and the
// equality survives three churn epochs, because churn is per-host
// sub-seeded too.
func TestPartitionedEqualsFullRestricted(t *testing.T) {
	const n = 4
	p := TestParams(5)
	full := Generate(p)

	for s := 0; s < n; s++ {
		part := &Partition{Count: n, Owned: []int{s}}
		pp := p
		pp.Partition = part
		sub := Generate(pp)
		if sub.SpaceSize() != full.SpaceSize() || len(sub.Prefixes()) != len(full.Prefixes()) {
			t.Fatalf("shard %d: partitioned universe lost global structure", s)
		}
		if sub.NumHosts() >= full.NumHosts() {
			t.Fatalf("shard %d: partitioned universe holds %d of %d hosts; expected ~1/%d",
				s, sub.NumHosts(), full.NumHosts(), n)
		}
		requireRestriction(t, full, sub, part)

		fu, su := full, sub
		for e := 1; e <= 3; e++ {
			cp := DefaultChurn(p.Seed + int64(e))
			fu, su = Churn(fu, cp), Churn(su, cp)
			requireRestriction(t, fu, su, part)
		}
	}
}

// requireUnion asserts whole holds exactly the hosts of parts, which
// own disjoint shard sets: every host of whole is in one part and equal
// there, and the host counts add up.
func requireUnion(t *testing.T, whole *Universe, parts ...*Universe) {
	t.Helper()
	sum := 0
	for _, u := range parts {
		sum += u.NumHosts()
	}
	if whole.NumHosts() != sum {
		t.Fatalf("universe holds %d hosts; its parts hold %d together", whole.NumHosts(), sum)
	}
	for _, h := range whole.Hosts() {
		in := 0
		for _, u := range parts {
			if ph, ok := u.HostAt(h.IP); ok {
				in++
				if !hostsEqual(t, h, ph) {
					t.Fatalf("host %v differs between the universe and its part", h.IP)
				}
			}
		}
		if in != 1 {
			t.Fatalf("host %v is in %d parts; want 1", h.IP, in)
		}
	}
}

// genOwned generates the partition of an n-way split owning owned.
func genOwned(p Params, n int, owned ...int) *Universe {
	p.Partition = &Partition{Count: n, Owned: owned}
	return Generate(p)
}

// TestPartitionMultiShardAndMerge: a partition owning {0, 2} of a 4-way
// split — the shape a worker's world takes once a second shard lands on
// it — equals the full universe restricted to {0, 2} and the union of
// the {0} and {2} partitions, and records the sorted owned set.
func TestPartitionMultiShardAndMerge(t *testing.T) {
	const n = 4
	p := TestParams(11)
	full := Generate(p)

	both := genOwned(p, n, 2, 0)
	requireRestriction(t, full, both, &Partition{Count: n, Owned: []int{0, 2}})
	requireUnion(t, both, genOwned(p, n, 0), genOwned(p, n, 2))
	if sp := both.part; sp == nil || sp.Count != n || len(sp.Owned) != 2 || sp.Owned[0] != 0 || sp.Owned[1] != 2 {
		t.Errorf("partition = %+v; want {Count: 4, Owned: [0 2]}", both.part)
	}
}

// TestPartitionMergeAfterChurn: the {0, 1} partition churned two epochs
// equals the full universe churned the same two epochs and restricted to
// {0, 1}, and the union of the {0} and {1} partitions each churned the
// same two epochs — so a worker that rebuilds a grown partition reaches
// the world its shards would have reached apart.
func TestPartitionMergeAfterChurn(t *testing.T) {
	const n = 4
	p := TestParams(21)
	churn2 := func(u *Universe) *Universe {
		for e := 1; e <= 2; e++ {
			u = Churn(u, DefaultChurn(p.Seed+int64(e)))
		}
		return u
	}
	both := churn2(genOwned(p, n, 0, 1))
	requireRestriction(t, churn2(Generate(p)), both, &Partition{Count: n, Owned: []int{0, 1}})
	requireUnion(t, both, churn2(genOwned(p, n, 0)), churn2(genOwned(p, n, 1)))
}

// TestGenerateCheckedRejects: parameters that cross a trust boundary
// (a worker's world spec) must error, not panic.
func TestGenerateCheckedRejects(t *testing.T) {
	nan := 0.0
	nan /= nan
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero prefixes", func(p *Params) { p.NumPrefix16 = 0 }},
		{"huge prefixes", func(p *Params) { p.NumPrefix16 = 1 << 20 }},
		{"zero ases", func(p *Params) { p.NumASes = 0 }},
		{"negative density", func(p *Params) { p.HostDensity = -0.5 }},
		{"density above 1", func(p *Params) { p.HostDensity = 40 }},
		{"NaN density", func(p *Params) { p.HostDensity = nan }},
		{"NaN pseudo fraction", func(p *Params) { p.PseudoHostFraction = nan }},
		{"partition owns nothing", func(p *Params) { p.Partition = &Partition{Count: 4} }},
		{"partition index out of range", func(p *Params) { p.Partition = &Partition{Count: 4, Owned: []int{4}} }},
		{"partition duplicate index", func(p *Params) { p.Partition = &Partition{Count: 4, Owned: []int{1, 1}} }},
		{"partition negative count", func(p *Params) { p.Partition = &Partition{Count: -1, Owned: []int{0}} }},
	}
	for _, c := range cases {
		p := TestParams(5)
		c.mut(&p)
		if _, err := GenerateChecked(p); err == nil {
			t.Errorf("%s: GenerateChecked accepted invalid params", c.name)
		}
	}
	if _, err := GenerateChecked(TestParams(5)); err != nil {
		t.Errorf("GenerateChecked rejected valid params: %v", err)
	}
}

// TestPartitionOwns pins the ownership predicate to asndb.ShardOf.
func TestPartitionOwns(t *testing.T) {
	part := &Partition{Count: 4, Owned: []int{1, 3}}
	for ip := asndb.IP(0); ip < 4096; ip += 97 {
		s := asndb.ShardOf(ip, 4)
		if got, want := part.Owns(ip), s == 1 || s == 3; got != want {
			t.Fatalf("Owns(%v) = %v; ShardOf says shard %d", ip, got, s)
		}
	}
	var full *Partition
	if !full.Owns(1234) || !full.Full() {
		t.Error("nil partition must own everything")
	}
	if (&Partition{Count: 1}).Full() != true {
		t.Error("count-1 partition must be full")
	}
}

// TestPartitionedFeatureScopes: scoped feature values (per-host hashes,
// variants) must not depend on partitioning — spot-checked over the
// fritzbox fleet like TestFeatureScopes does for the full universe.
func TestPartitionedFeatureScopes(t *testing.T) {
	p := TestParams(5)
	full := Generate(p)
	pp := p
	pp.Partition = &Partition{Count: 2, Owned: []int{1}}
	sub := Generate(pp)
	checked := 0
	for _, h := range sub.Hosts() {
		fh, ok := full.HostAt(h.IP)
		if !ok {
			t.Fatalf("partitioned host %v missing from full universe", h.IP)
		}
		for _, svc := range h.Services() {
			fsvc, ok := fh.ServiceAt(svc.Port)
			if !ok {
				t.Fatalf("partitioned service %v:%d missing from full universe", h.IP, svc.Port)
			}
			for _, v := range svc.Feats {
				if !slices.Contains(fsvc.Feats, v) {
					t.Fatalf("feature %v of %v:%d = %q partitioned, not in the full set %v", v.Key, h.IP, svc.Port, v.Val, fsvc.Feats)
				}
				checked++
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d feature values compared; universe too small to trust", checked)
	}
}
