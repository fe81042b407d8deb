package netmodel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gps/internal/asndb"
	"gps/internal/features"
)

func testUniverse(t *testing.T) *Universe {
	t.Helper()
	return Generate(TestParams(5))
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(TestParams(5))
	b := Generate(TestParams(5))
	if a.NumHosts() != b.NumHosts() || a.NumServices() != b.NumServices() {
		t.Fatalf("same seed produced different universes: %d/%d vs %d/%d hosts/services",
			a.NumHosts(), a.NumServices(), b.NumHosts(), b.NumServices())
	}
	ha, hb := a.Hosts(), b.Hosts()
	for i := range ha {
		if ha[i].IP != hb[i].IP || ha[i].Profile != hb[i].Profile {
			t.Fatalf("host %d differs: %v/%s vs %v/%s", i, ha[i].IP, ha[i].Profile, hb[i].IP, hb[i].Profile)
		}
		pa, pb := ha[i].Services(), hb[i].Services()
		if len(pa) != len(pb) {
			t.Fatalf("host %v port count differs", ha[i].IP)
		}
		for j := range pa {
			if pa[j].Port != pb[j].Port {
				t.Fatalf("host %v ports differ", ha[i].IP)
			}
		}
	}
}

func TestGenerateDifferentSeeds(t *testing.T) {
	a := Generate(TestParams(5))
	b := Generate(TestParams(6))
	if a.NumHosts() == b.NumHosts() && a.NumServices() == b.NumServices() {
		// Counts could coincide, but host placement should not.
		same := true
		for i, h := range a.Hosts() {
			if i >= 100 {
				break
			}
			if bh, ok := b.HostAt(h.IP); !ok || bh.Profile != h.Profile {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical placements")
		}
	}
}

func TestUniverseBasicShape(t *testing.T) {
	u := testUniverse(t)
	p := TestParams(5)
	if got := u.SpaceSize(); got != uint64(p.NumPrefix16)*65536 {
		t.Errorf("SpaceSize = %d", got)
	}
	wantHosts := float64(u.SpaceSize()) * p.HostDensity
	if float64(u.NumHosts()) < 0.5*wantHosts || float64(u.NumHosts()) > 1.2*wantHosts {
		t.Errorf("NumHosts = %d; want ~%.0f", u.NumHosts(), wantHosts)
	}
	if len(u.ASes()) != p.NumASes {
		t.Errorf("ASes = %d; want %d", len(u.ASes()), p.NumASes)
	}
	// Every host's ASN must agree with the routing table.
	for _, h := range u.Hosts()[:100] {
		asn, ok := u.ASNOf(h.IP)
		if !ok || asn != h.ASN {
			t.Errorf("host %v ASN mismatch: %v vs %v", h.IP, h.ASN, asn)
		}
	}
}

func TestResponsiveQueries(t *testing.T) {
	u := testUniverse(t)
	var sample *Host
	for _, h := range u.Hosts() {
		if !h.Middlebox && len(h.Services()) > 0 {
			sample = h
			break
		}
	}
	if sample == nil {
		t.Fatal("no regular host found")
	}
	port := sample.Services()[0].Port
	if !u.Responsive(sample.IP, port) {
		t.Error("host not responsive on its own port")
	}
	svc, ok := u.ServiceAt(sample.IP, port)
	if !ok || svc.Port != port {
		t.Error("ServiceAt failed")
	}
	// An unoccupied address responds to nothing.
	for off := asndb.IP(0); off < 65536; off++ {
		ip := u.Prefixes()[0].Addr + off
		if _, occupied := u.HostAt(ip); !occupied {
			if u.Responsive(ip, 80) {
				t.Error("empty address responded")
			}
			break
		}
	}
}

func TestAddrAtIndexOfRoundTrip(t *testing.T) {
	u := testUniverse(t)
	f := func(raw uint32) bool {
		i := uint64(raw) % u.SpaceSize()
		ip := u.Prefixes()[i>>16].Addr + asndb.IP(i&0xffff)
		back, ok := u.IndexOf(ip)
		return ok && back == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if _, ok := u.IndexOf(asndb.MustParseIP("10.0.0.1")); ok {
		t.Error("RFC1918 space must not be announced")
	}
}

// naiveResponsiveIn is ResponsiveIn's oracle: probe every address of the
// prefix one at a time.
func naiveResponsiveIn(u *Universe, p asndb.Prefix, port uint16) []asndb.IP {
	var out []asndb.IP
	for off := uint64(0); off < p.Size(); off++ {
		if ip := p.First() + asndb.IP(off); u.Responsive(ip, port) {
			out = append(out, ip)
		}
	}
	return out
}

// withEdgeHosts returns u plus hosts that answer outside their service
// map in the awkward ways generation never produces: explicit services
// inside and on the edges of their own pseudo block, blocks that start
// at port 0 or end at 65535, and a middlebox with an explicit service.
// They sit on consecutive free addresses of the first /16, so the merge
// of the two index runs interleaves them.
func withEdgeHosts(u *Universe) *Universe {
	out := &Universe{ases: u.ases, routes: u.routes, prefixes: u.prefixes,
		hosts: make(map[asndb.IP]*Host, len(u.hosts)+4), seed: u.seed, part: u.part}
	for _, h := range u.hostList {
		out.insertHost(h)
	}
	ip := u.prefixes[0].Addr
	free := func() asndb.IP {
		for u.hosts[ip] != nil || out.hosts[ip] != nil {
			ip++
		}
		return ip
	}
	tmpl := &Service{Proto: features.ProtocolHTTP, Pseudo: true}
	edge := func(lo, hi uint16, ports ...uint16) {
		h := NewHost(free(), 1, "edge")
		h.SetPseudoBlock(lo, hi, tmpl)
		for _, p := range ports {
			h.AddService(Service{Port: p, Proto: features.ProtocolHTTP})
		}
		out.insertHost(h)
	}
	edge(1000, 2000, 0, 80, 1000, 1500, 2000, 2001)
	edge(64000, 65535, 65535)
	edge(0, 10, 5, 11)
	mb := NewHost(free(), 1, "middlebox")
	mb.Middlebox = true
	mb.AddService(Service{Port: 443, Proto: features.ProtocolHTTP})
	out.insertHost(mb)
	out.finalize()
	return out
}

// TestResponsiveInMatchesNaive: the responder index answers exactly what
// probing every address answers — over every announced /16 and seeded
// random sub-prefixes from /16 to /32, on ports 0 and 65535, around each
// middlebox and on both sides of each pseudo block's edges — in full,
// partitioned, churned and churned-partition universes and one holding
// hand-made edge hosts.
func TestResponsiveInMatchesNaive(t *testing.T) {
	p := TestParams(5)
	full := Generate(p)
	gen := func(owned ...int) *Universe {
		pp := p
		pp.Partition = &Partition{Count: 4, Owned: owned}
		return Generate(pp)
	}
	universes := []struct {
		name string
		u    *Universe
	}{
		{"full", full},
		{"partitioned", gen(1)},
		{"churned", Churn(Churn(full, DefaultChurn(8)), DefaultChurn(9))},
		{"churned partition", Churn(gen(0, 3), DefaultChurn(8))},
		{"edge-hosts", withEdgeHosts(full)},
	}
	rng := rand.New(rand.NewSource(3))
	for _, c := range universes {
		u := c.u
		check := func(pfx asndb.Prefix, port uint16) {
			t.Helper()
			if got, want := u.ResponsiveIn(pfx, port), naiveResponsiveIn(u, pfx, port); !slices.Equal(got, want) {
				t.Fatalf("%s: ResponsiveIn(%v, %d) = %d addresses %v; probing each finds %d %v",
					c.name, pfx, port, len(got), got, len(want), want)
			}
		}
		for _, pfx := range u.Prefixes() {
			for _, port := range []uint16{0, 80, 22, 7547, 65535} {
				check(pfx, port)
			}
		}
		for i := 0; i < 200; i++ {
			pfx := u.Prefixes()[rng.Intn(len(u.Prefixes()))]
			bits := uint8(16 + rng.Intn(17))
			sub := asndb.SubnetOf(pfx.Addr+asndb.IP(rng.Intn(1<<16)), bits)
			check(sub, uint16(rng.Intn(1<<16)))
		}
		middleboxes, pseudo := 0, 0
		for _, h := range u.Hosts() {
			if h.Middlebox {
				middleboxes++
				check(asndb.SubnetOf(h.IP, 28), uint16(rng.Intn(1<<16)))
			}
			if lo, hi, ok := h.PseudoBlock(); ok {
				pseudo++
				for _, port := range []uint16{lo - 1, lo, hi, hi + 1} {
					check(asndb.SubnetOf(h.IP, 24), port)
				}
			}
		}
		if middleboxes == 0 || pseudo == 0 {
			t.Fatalf("%s: %d middleboxes and %d pseudo hosts; the oracle needs both", c.name, middleboxes, pseudo)
		}
	}
}

// FuzzResponsiveIn holds the responder index to the per-address walk on
// prefixes and ports the fuzzer picks, over one small universe with
// middleboxes, pseudo hosts and the hand-made edge hosts.
func FuzzResponsiveIn(f *testing.F) {
	p := TestParams(9)
	p.NumPrefix16 = 2
	u := withEdgeHosts(Generate(p))
	f.Add(uint32(0), uint8(0), uint16(80))
	f.Add(uint32(0), uint8(8), uint16(1500))
	f.Add(uint32(0x1ffff), uint8(16), uint16(65535))
	f.Fuzz(func(t *testing.T, addr uint32, bits uint8, port uint16) {
		pfx := u.Prefixes()[int(addr>>16)%len(u.Prefixes())]
		sub := asndb.SubnetOf(pfx.Addr|asndb.IP(addr&0xffff), 16+bits%17)
		if got, want := u.ResponsiveIn(sub, port), naiveResponsiveIn(u, sub, port); !slices.Equal(got, want) {
			t.Fatalf("ResponsiveIn(%v, %d) = %v; probing each finds %v", sub, port, got, want)
		}
	})
}

func TestAnnouncedWithin(t *testing.T) {
	u := testUniverse(t)
	whole := u.AnnouncedWithin(asndb.Prefix{Bits: 0})
	if len(whole) != len(u.Prefixes()) {
		t.Errorf("/0 covers %d prefixes; want %d", len(whole), len(u.Prefixes()))
	}
	first := u.Prefixes()[0]
	sub := asndb.Prefix{Addr: first.Addr, Bits: 20}
	in := u.AnnouncedWithin(sub)
	if len(in) != 1 || in[0] != sub {
		t.Errorf("announced /20 not returned: %v", in)
	}
	if got := u.AnnouncedWithin(asndb.MustPrefix(asndb.MustParseIP("10.0.0.0"), 24)); got != nil {
		t.Errorf("unannounced space returned %v", got)
	}
}

func TestPseudoBlocks(t *testing.T) {
	u := testUniverse(t)
	found := false
	for _, h := range u.Hosts() {
		lo, hi, ok := h.PseudoBlock()
		if !ok {
			continue
		}
		found = true
		if hi < lo {
			t.Errorf("pseudo block inverted: %d-%d", lo, hi)
		}
		svc, ok := h.ServiceAt(lo + (hi-lo)/2)
		if !ok || !svc.Pseudo {
			t.Error("pseudo block port did not synthesize a pseudo service")
		}
		if h.NumServices() <= int(hi-lo) {
			t.Error("NumServices must include the pseudo block")
		}
		if !h.Responsive(lo) || !h.Responsive(hi) {
			t.Error("pseudo block edges unresponsive")
		}
		break
	}
	if !found {
		t.Error("no pseudo-block hosts generated")
	}
}

func TestMiddleboxes(t *testing.T) {
	u := testUniverse(t)
	n := 0
	for _, h := range u.Hosts() {
		if h.Middlebox {
			n++
			if !h.Responsive(1) || !h.Responsive(65535) {
				t.Error("middlebox must acknowledge every port")
			}
			if _, ok := h.ServiceAt(80); ok {
				t.Error("middlebox must have no services")
			}
		}
	}
	if n == 0 {
		t.Error("no middleboxes generated")
	}
}

// TestHostPortsSorted: in every universe Generate and Churn return, full
// or partitioned, each host's services are strictly port-ascending and
// each feature set, the pseudo template's too, strictly key-ascending.
func TestHostPortsSorted(t *testing.T) {
	full := testUniverse(t)
	pp := TestParams(5)
	pp.Partition = &Partition{Count: 3, Owned: []int{0, 2}}
	part := Generate(pp)
	churn := DefaultChurn(9)
	keyAscending := func(h *Host, s features.Set) {
		for j := 1; j < len(s); j++ {
			if s[j-1].Key >= s[j].Key {
				t.Fatalf("host %v feature set %v not key-ascending", h.IP, s)
			}
		}
	}
	for _, u := range []*Universe{full, part, Churn(full, churn), Churn(part, churn)} {
		for _, h := range u.Hosts() {
			if h.pseudoTmpl != nil {
				keyAscending(h, h.pseudoTmpl.Feats)
			}
			for i, svc := range h.Services() {
				if i > 0 && h.Services()[i-1].Port >= svc.Port {
					t.Fatalf("host %v services not port-ascending at %d", h.IP, svc.Port)
				}
				keyAscending(h, svc.Feats)
			}
		}
	}
}

func TestHostAddRemoveService(t *testing.T) {
	h := NewHost(1, 1, "test")
	h.AddService(Service{Port: 80, Proto: features.ProtocolHTTP})
	h.AddService(Service{Port: 22, Proto: features.ProtocolSSH})
	h.AddService(Service{Port: 443, Proto: features.ProtocolTLS})
	h.AddService(Service{Port: 80, Proto: features.ProtocolSSH})
	var ports []uint16
	for _, svc := range h.Services() {
		ports = append(ports, svc.Port)
	}
	if !slices.Equal(ports, []uint16{22, 80, 443}) {
		t.Errorf("ports = %v", ports)
	}
	if svc, ok := h.ServiceAt(80); !ok || svc.Proto != features.ProtocolSSH {
		t.Errorf("port 80 after a second AddService = %+v; want the second service", svc)
	}
	if !h.Responsive(22) || h.Responsive(23) {
		t.Error("Responsive disagrees with the services added")
	}
}

func TestPortPopulationLongTail(t *testing.T) {
	u := testUniverse(t)
	pop := u.PortPopulation()
	open := 0
	for _, c := range pop {
		if c > 0 {
			open++
		}
	}
	// The long tail: far more than the handful of assigned ports, far
	// fewer than all 65536.
	if open < 100 {
		t.Errorf("only %d open ports; want a long tail", open)
	}
	if pop[80] < pop[8082] || pop[80] < pop[2323] {
		t.Error("port 80 must be more popular than uncommon ports")
	}
}

func TestChurnShape(t *testing.T) {
	u := testUniverse(t)
	after := Churn(u, DefaultChurn(9))
	if after.NumHosts() >= u.NumHosts() {
		t.Errorf("churn grew hosts: %d -> %d", u.NumHosts(), after.NumHosts())
	}
	// Churn must never add services.
	for _, h := range after.Hosts()[:300] {
		orig, ok := u.HostAt(h.IP)
		if !ok {
			t.Fatalf("churn invented host %v", h.IP)
		}
		for _, svc := range h.Services() {
			if _, had := orig.ServiceAt(svc.Port); !had {
				t.Fatalf("churn invented service %v:%d", h.IP, svc.Port)
			}
		}
	}
	// And the original universe must be untouched.
	fresh := Generate(TestParams(5))
	if fresh.NumServices() != u.NumServices() {
		t.Error("Churn mutated its input universe")
	}
}

func TestGenerateBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Generate with zero params did not panic")
		}
	}()
	Generate(Params{})
}

// featVal is the value s holds for k, or "" when it holds none.
func featVal(s features.Set, k features.Key) string {
	for _, v := range s {
		if v.Key == k {
			return v.Val
		}
	}
	return ""
}

func TestFeatureScopes(t *testing.T) {
	u := testUniverse(t)
	// Fleet-scoped values repeat across hosts; per-host values are
	// unique. FRITZ!Box's HTTP server header is fleet-scoped.
	servers := make(map[string]int)
	certs := make(map[string]int)
	for _, h := range u.Hosts() {
		if h.Profile != "fritzbox" {
			continue
		}
		if svc, ok := h.ServiceAt(80); ok {
			servers[featVal(svc.Feats, features.KeyHTTPServer)]++
		}
		if svc, ok := h.ServiceAt(443); ok {
			certs[featVal(svc.Feats, features.KeyTLSCertHash)]++
		}
	}
	if len(servers) != 1 {
		t.Errorf("fleet-scoped HTTP server has %d values; want 1", len(servers))
	}
	for v, n := range certs {
		if n > 1 {
			t.Errorf("per-host cert %q repeated %d times", v, n)
		}
	}
}

// TestForwardedServiceTTL: a port-forwarded service answers from a
// device behind the host, so its TTL differs from the host's own
// services (§7) — the signal the TTL field of every observed record
// carries.
func TestForwardedServiceTTL(t *testing.T) {
	u := Generate(TestParams(77))
	for _, h := range u.Hosts() {
		var fwd, reg *Service
		for i := range h.Services() {
			svc := &h.Services()[i]
			if svc.Forwarded {
				fwd = svc
			} else {
				reg = svc
			}
		}
		if fwd == nil || reg == nil {
			continue
		}
		if fwd.TTL == reg.TTL {
			t.Errorf("forwarded service TTL %d equals regular %d on %v", fwd.TTL, reg.TTL, h.IP)
		}
		return
	}
	t.Skip("no host with both forwarded and regular services")
}

// TestKeyCompare: Compare is the lexicographic (IP, port) order — IP
// first across the whole 32-bit range, port breaking ties.
func TestKeyCompare(t *testing.T) {
	ordered := []Key{
		{IP: 0, Port: 0}, {IP: 0, Port: 65535}, {IP: 1, Port: 0}, {IP: 1, Port: 80},
		{IP: 0x7fffffff, Port: 443}, {IP: 0x80000000, Port: 1}, {IP: 0xffffffff, Port: 0}, {IP: 0xffffffff, Port: 65535},
	}
	for i, a := range ordered {
		for j, b := range ordered {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := a.Compare(b); got != want {
				t.Errorf("%v.Compare(%v) = %d; want %d", a, b, got, want)
			}
		}
	}
}

// TestSortedPairs: the radix kernel returns exactly what a comparison
// sort of the map's entries returns, with every value still beside its
// key — on small and large maps, at the ends of the key space, and on
// key sets whose shared digits skip radix passes.
func TestSortedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(n int, ip func() uint32, port func() uint16) map[Key]uint64 {
		m := make(map[Key]uint64, n)
		for len(m) < n {
			k := Key{IP: asndb.IP(ip()), Port: port()}
			m[k] = k.bits() ^ 0x5a5a
		}
		return m
	}
	anyIP := func() uint32 { return rng.Uint32() }
	anyPort := func() uint16 { return uint16(rng.Intn(1 << 16)) }
	cases := map[string]map[Key]uint64{
		"empty": {},
		"one":   {{IP: 0xffffffff, Port: 65535}: 1},
		"ends": {{IP: 0, Port: 0}: 1, {IP: 0, Port: 65535}: 2,
			{IP: 0xffffffff, Port: 0}: 3, {IP: 0xffffffff, Port: 65535}: 4},
	}
	for _, n := range []int{2, 100, 20000} {
		cases[fmt.Sprintf("random-%d", n)] = random(n, anyIP, anyPort)
	}
	// One /16 and a handful of ports: the top two IP bytes and the high
	// port byte are shared, so three of the six passes are skipped.
	cases["one-prefix"] = random(5000, func() uint32 { return 0x0a0b0000 | uint32(rng.Intn(1<<16)) },
		func() uint16 { return uint16(rng.Intn(200)) })
	// Every key on one port: only the IP bytes sort.
	cases["one-port"] = random(3000, anyIP, func() uint16 { return 443 })
	// Keys straddling the 0.0.0.0 and 255.255.255.255 ends and a /16
	// boundary at once.
	edge := func() uint32 {
		return [...]uint32{0, 0xffffffff, 0x0a0bffff, 0x0a0c0000}[rng.Intn(4)] ^ uint32(rng.Intn(8))
	}
	cases["edges"] = random(4096, edge, anyPort)

	for name, m := range cases {
		want := make([]Pair[uint64], 0, len(m))
		for k, v := range m {
			want = append(want, Pair[uint64]{k, v})
		}
		slices.SortFunc(want, func(a, b Pair[uint64]) int { return a.Key.Compare(b.Key) })
		if got := SortedPairs(m); !slices.Equal(got, want) {
			t.Errorf("%s: SortedPairs differs from slices.SortFunc over %d entries", name, len(m))
		}
	}
}
