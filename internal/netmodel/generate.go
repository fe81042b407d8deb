package netmodel

import (
	"fmt"
	"hash/fnv"
	"sort"

	"gps/internal/asndb"
	"gps/internal/features"
)

// Params configures universe generation. The zero value is not usable; use
// DefaultParams and override fields as needed.
type Params struct {
	Seed int64
	// NumPrefix16 is the number of /16 blocks in the routable space. The
	// scannable space is NumPrefix16 * 65536 addresses; the paper's
	// "one 100% scan" bandwidth unit equals that many probes.
	NumPrefix16 int
	// NumASes is the number of autonomous systems announcing the space.
	NumASes int
	// HostDensity is the fraction of scannable addresses that respond on
	// at least one port (roughly 4% on the real Internet).
	HostDensity float64
	// NumVendorModels is how many long-tail vendor fleets to generate in
	// addition to the hand-written majors.
	NumVendorModels int
	// Profiles overrides the device population entirely when non-nil.
	Profiles []Profile
	// PseudoHostFraction is the share of hosts serving pseudo-service
	// blocks (Appendix B); MiddleboxFraction is the share acking every
	// port (filtered by LZR).
	PseudoHostFraction float64
	MiddleboxFraction  float64
	// VariantsPerFleet is how many firmware variants each fleet's
	// variant-scoped feature values spread over.
	VariantsPerFleet int
	// Partition restricts generation to the owned subset of an n-way
	// hash split: only owned addresses materialize hosts, but every
	// materialized host is byte-identical to the full run's (the global
	// structure — ASes, prefixes, routes, placement claims — is always
	// computed in full, so a partitioned universe costs ~|owned|/n of
	// the host memory, not of the placement work). nil owns everything.
	Partition *Partition
}

// maxPrefix16 bounds NumPrefix16 far below the ~56K /16 blocks the
// unicast draw pool holds, so prefix allocation always terminates.
const maxPrefix16 = 4096

// validFraction accepts fractions in [0, 1] and rejects NaN.
func validFraction(f float64) bool { return f >= 0 && f <= 1 }

// Validate reports whether the parameters describe a generatable
// universe. Generation panics on invalid parameters (a programming
// error in-process); callers handed untrusted parameters — a worker
// rebuilding a world from a coordinator's spec — use GenerateChecked,
// which turns the same conditions into errors.
func (p Params) Validate() error {
	if p.NumPrefix16 <= 0 || p.NumPrefix16 > maxPrefix16 {
		return fmt.Errorf("netmodel: NumPrefix16 %d out of range [1, %d]", p.NumPrefix16, maxPrefix16)
	}
	if p.NumASes <= 0 {
		return fmt.Errorf("netmodel: NumASes %d; want >= 1", p.NumASes)
	}
	if !validFraction(p.HostDensity) {
		return fmt.Errorf("netmodel: HostDensity %v out of range [0, 1]", p.HostDensity)
	}
	if !validFraction(p.PseudoHostFraction) {
		return fmt.Errorf("netmodel: PseudoHostFraction %v out of range [0, 1]", p.PseudoHostFraction)
	}
	if !validFraction(p.MiddleboxFraction) {
		return fmt.Errorf("netmodel: MiddleboxFraction %v out of range [0, 1]", p.MiddleboxFraction)
	}
	if err := p.Partition.Validate(); err != nil {
		return err
	}
	return nil
}

// DefaultParams returns a mid-sized universe suitable for experiments:
// 48 /16 blocks (~3.1M addresses), ~3% host density (~95K hosts).
func DefaultParams(seed int64) Params {
	return Params{
		Seed:               seed,
		NumPrefix16:        48,
		NumASes:            24,
		HostDensity:        0.03,
		NumVendorModels:    120,
		PseudoHostFraction: 0.012,
		MiddleboxFraction:  0.006,
		VariantsPerFleet:   5,
	}
}

// TestParams returns a small universe for fast unit tests: 8 /16 blocks,
// ~0.5M addresses, ~10K hosts.
func TestParams(seed int64) Params {
	p := DefaultParams(seed)
	p.NumPrefix16 = 8
	p.NumASes = 8
	p.HostDensity = 0.02
	p.NumVendorModels = 40
	return p
}

// asTypeWeights is ordered: generation must be deterministic for a given
// seed, so no map iteration is allowed here.
var asTypeWeights = [numASTypes]float64{
	ASResidential: 0.35,
	ASHosting:     0.25,
	ASEnterprise:  0.20,
	ASMobile:      0.10,
	ASAcademic:    0.10,
}

// Generate builds a deterministic universe from the parameters. The same
// Params always produce the same universe, and the same Params restricted
// by a Partition produce exactly the full universe's owned hosts: every
// random decision draws from a sub-seed derived per entity (AS layout,
// /16 pool, host, pseudo host, middlebox), never from a shared stream,
// so skipping an entity changes nothing else. Generate panics on invalid
// Params; GenerateChecked returns the error instead.
func Generate(p Params) *Universe {
	u, err := GenerateChecked(p)
	if err != nil {
		panic(err.Error())
	}
	return u
}

// GenerateChecked is Generate with parameter validation: invalid Params
// (including a malformed Partition) return an error instead of
// panicking. This is the entry point for parameters that crossed a
// trust boundary, e.g. a shard worker rebuilding a universe from a
// coordinator's world spec.
func GenerateChecked(p Params) (*Universe, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.VariantsPerFleet <= 0 {
		p.VariantsPerFleet = 5
	}
	part := p.Partition.clone()
	u := &Universe{
		routes: &asndb.Table{},
		hosts:  make(map[asndb.IP]*Host),
		seed:   p.Seed,
		part:   part,
	}
	g := &generator{p: p, u: u, part: part}
	g.allocateASes()
	g.claims = make([]uint64, (u.SpaceSize()+63)/64)
	profiles := p.Profiles
	if profiles == nil {
		profiles = DefaultProfiles(p.NumVendorModels, p.Seed^0x5eed)
	}
	g.placeHosts(profiles)
	g.injectPseudoHosts()
	g.injectMiddleboxes()
	u.finalize()
	return u, nil
}

type generator struct {
	p    Params
	u    *Universe
	part *Partition
	// claims holds one bit per scannable address (dense IndexOf index):
	// set when some entity — host, pseudo host, middlebox, whether owned
	// or not — placed itself there. Placement runs over the full
	// universe even under a Partition (it is cheap: a few rng draws per
	// entity), so collision outcomes never depend on which subset is
	// materialized; only service population is skipped for unowned
	// addresses.
	claims []uint64
	// placed counts every successful claim. Pseudo-host and middlebox
	// counts scale from it, so they too are subset-independent.
	placed int
	// pools maps each announced /16 to the /20 blocks (0..15) that hold
	// its hosts. Pools are a property of the network, not the device
	// fleet: an ISP assigns all customers into the same DHCP ranges, so
	// the rest of the /16 stays dark. This is what makes small scanning
	// steps precise (§6.3).
	pools map[asndb.IP][]uint16
}

// owns reports whether the configured partition owns ip.
func (g *generator) owns(ip asndb.IP) bool { return g.part.Owns(ip) }

// claim marks ip as occupied; false means someone already lives there.
func (g *generator) claim(ip asndb.IP) bool {
	idx, ok := g.u.IndexOf(ip)
	if !ok {
		return false
	}
	w, bit := idx/64, uint64(1)<<(idx%64)
	if g.claims[w]&bit != 0 {
		return false
	}
	g.claims[w] |= bit
	g.placed++
	return true
}

// poolsFor lazily picks 2-4 dense /20 blocks for a /16, from the
// prefix's own sub-seed.
func (g *generator) poolsFor(addr asndb.IP) []uint16 {
	if g.pools == nil {
		g.pools = make(map[asndb.IP][]uint16)
	}
	if p, ok := g.pools[addr]; ok {
		return p
	}
	rng := newRNG(g.p.Seed, "pools", uint64(addr))
	n := 2 + rng.Intn(3)
	perm := rng.Perm(16)
	p := make([]uint16, n)
	for i := 0; i < n; i++ {
		p[i] = uint16(perm[i])
	}
	g.pools[addr] = p
	return p
}

// allocateASes carves the routable space into ASes of varied sizes and
// registers their prefixes in the routing table. The whole network
// layout draws from one "ases" sub-seed: it is global structure every
// partition needs identically (routing, prefix census, AS types).
func (g *generator) allocateASes() {
	rng := newRNG(g.p.Seed, "ases")
	// Draw distinct /16 network addresses from the unicast range.
	used := make(map[asndb.IP]bool)
	prefixes := make([]asndb.Prefix, 0, g.p.NumPrefix16)
	for len(prefixes) < g.p.NumPrefix16 {
		a := 1 + rng.Intn(223)
		if a == 10 || a == 127 { // skip loopback and RFC1918 /8
			continue
		}
		b := rng.Intn(256)
		addr := asndb.IP(uint32(a)<<24 | uint32(b)<<16)
		if used[addr] {
			continue
		}
		used[addr] = true
		prefixes = append(prefixes, asndb.MustPrefix(addr, 16))
	}

	// Assign AS types by weight, then deal prefixes out: residential
	// ISPs tend to be large (more /16s), hosting providers small.
	types := make([]ASType, 0, g.p.NumASes)
	for t := ASType(0); t < numASTypes; t++ {
		n := int(asTypeWeights[t]*float64(g.p.NumASes) + 0.5)
		for i := 0; i < n && len(types) < g.p.NumASes; i++ {
			types = append(types, t)
		}
	}
	for len(types) < g.p.NumASes {
		types = append(types, ASResidential)
	}
	rng.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })

	ases := make([]ASInfo, g.p.NumASes)
	for i := range ases {
		ases[i] = ASInfo{
			Num:  asndb.ASN(64512 + i), // private-use ASN range
			Name: fmt.Sprintf("%s-net-%d", types[i], i),
			Type: types[i],
		}
	}
	// Deal each prefix to an AS, favoring residential ASes with a double
	// share so large consumer networks emerge.
	weights := make([]int, len(ases))
	for i, a := range ases {
		weights[i] = 1
		if a.Type == ASResidential {
			weights[i] = 2
		}
	}
	var wsum int
	for _, w := range weights {
		wsum += w
	}
	for _, pfx := range prefixes {
		r := rng.Intn(wsum)
		idx := 0
		for i, w := range weights {
			if r < w {
				idx = i
				break
			}
			r -= w
		}
		ases[idx].Prefixes = append(ases[idx].Prefixes, pfx)
	}
	for i := range ases {
		for _, pfx := range ases[i].Prefixes {
			g.u.routes.Insert(pfx, ases[i].Num)
		}
	}
	g.u.ases = ases
	g.u.prefixes = prefixes
	// Later passes index the claims bitmap through IndexOf and draw
	// free addresses by prefix position, so the canonical sorted order
	// must hold from here on (finalize's re-sort is then a no-op).
	sort.Slice(g.u.prefixes, func(i, j int) bool { return g.u.prefixes[i].Addr < g.u.prefixes[j].Addr })
}

// placeHosts creates the device population profile by profile.
func (g *generator) placeHosts(profiles []Profile) {
	space := float64(g.p.NumPrefix16) * 65536
	totalHosts := int(space * g.p.HostDensity)
	var wsum float64
	for _, pr := range profiles {
		wsum += pr.Weight
	}
	for pi, pr := range profiles {
		n := int(float64(totalHosts) * pr.Weight / wsum)
		if n == 0 {
			n = 1
		}
		g.placeProfile(pi, pr, n)
	}
}

// eligiblePrefixes returns the /16 blocks a profile may occupy.
func (g *generator) eligiblePrefixes(pr Profile, rng *rng) []asndb.Prefix {
	wantType := make(map[ASType]bool, len(pr.ASTypes))
	for _, t := range pr.ASTypes {
		wantType[t] = true
	}
	var candidates []ASInfo
	for _, a := range g.u.ases {
		if wantType[a.Type] && len(a.Prefixes) > 0 {
			candidates = append(candidates, a)
		}
	}
	if len(candidates) == 0 {
		// No AS of the requested type exists in a tiny universe; fall
		// back to the whole space.
		return g.u.prefixes
	}
	if pr.SingleAS {
		a := candidates[rng.Intn(len(candidates))]
		return a.Prefixes
	}
	var out []asndb.Prefix
	for _, a := range candidates {
		out = append(out, a.Prefixes...)
	}
	return out
}

// placeProfile places profile pi's n hosts. Profile-level draws (which
// /16s the fleet clusters in) come from the profile's sub-seed; each
// host then draws placement and services from its own (profile, index)
// sub-seed, so a host is identical whether or not its neighbors are
// materialized.
func (g *generator) placeProfile(pi int, pr Profile, n int) {
	prng := newRNG(g.p.Seed, "profile", uint64(pi))
	eligible := g.eligiblePrefixes(pr, prng)
	k := int(float64(len(eligible))*pr.Concentration + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(eligible) {
		k = len(eligible)
	}
	perm := prng.Perm(len(eligible))
	// Within each chosen /16, hosts land only in the network's dense /20
	// pools (DHCP ranges, rack allocations); the rest of the block stays
	// dark. See poolsFor.
	chosen := make([]asndb.Prefix, k)
	for i := 0; i < k; i++ {
		chosen[i] = eligible[perm[i]]
	}
	for i := 0; i < n; i++ {
		hrng := newRNG(g.p.Seed, "host", uint64(pi), uint64(i))
		pfx := chosen[hrng.Intn(k)]
		pools := g.poolsFor(pfx.Addr)
		pool := pools[hrng.Intn(len(pools))]
		var ip asndb.IP
		placed := false
		for try := 0; try < 6; try++ {
			off := uint32(pool)<<12 | uint32(hrng.Intn(4096))
			ip = pfx.Addr + asndb.IP(off)
			// The claim decides occupancy at placement time, service
			// roll or not: whether a host's services all roll absent is
			// unknowable for unowned hosts, so an all-absent host still
			// occupies its address (it just never enters the host map).
			if g.claim(ip) {
				placed = true
				break
			}
		}
		if !placed || !g.owns(ip) {
			continue
		}
		asn, _ := g.u.routes.Lookup(ip)
		h := NewHost(ip, asn, pr.Name)
		g.populateHost(h, pr, hrng)
		if len(h.services) == 0 {
			continue // all probabilistic services rolled absent
		}
		g.u.insertHost(h)
	}
}

// populateHost instantiates a profile's service templates on one host,
// drawing from the host's own rng stream.
func (g *generator) populateHost(h *Host, pr Profile, rng *rng) {
	// One firmware variant per host: all variant-scoped features on the
	// host share it, as a real firmware image would.
	hostVariant := rng.Intn(g.p.VariantsPerFleet)
	baseTTL := uint8(40 + rng.Intn(25))
	for _, st := range pr.Services {
		if st.Prob < 1 && rng.Float64() >= st.Prob {
			continue
		}
		port := uint16(0)
		switch {
		case st.RandomPort:
			min := int(st.RandomPortMin)
			if min < 1024 {
				min = 1024
			}
			port = uint16(min + rng.Intn(65536-min))
		case st.PickOne:
			port = st.Ports[rng.Intn(len(st.Ports))]
		default:
			// Non-PickOne templates with several ports open all of
			// them; handled by looping below.
		}
		ports := []uint16{port}
		if !st.RandomPort && !st.PickOne {
			ports = st.Ports
		}
		for _, pt := range ports {
			svc := Service{
				Port:      pt,
				Proto:     st.Proto,
				TTL:       baseTTL,
				Forwarded: st.Forwarded,
			}
			if st.Forwarded {
				// A forwarded service traverses the NAT hop.
				svc.TTL = baseTTL - 1 - uint8(rng.Intn(3))
			}
			var vals []features.Value
			if len(st.Feats) > 0 || svc.Proto != features.ProtocolUnknown {
				vals = make([]features.Value, 0, len(st.Feats)+1)
			}
			for _, ft := range st.Feats {
				vals = append(vals, features.Value{Key: ft.Key, Val: g.featureValue(ft, h, hostVariant)})
			}
			if svc.Proto != features.ProtocolUnknown {
				vals = append(vals, features.Value{Key: features.KeyProtocol, Val: svc.Proto.String()})
			}
			svc.Feats = features.NewSet(vals...)
			h.AddService(svc)
		}
	}
}

// featureValue renders a template into a concrete string per its scope.
func (g *generator) featureValue(ft FeatureTemplate, h *Host, hostVariant int) string {
	switch ft.Scope {
	case ScopeFleet:
		return ft.Base
	case ScopePerAS:
		return fmt.Sprintf("%s@%s", ft.Base, h.ASN)
	case ScopePerHost:
		return fmt.Sprintf("%s#%08x", ft.Base, hostHash(h.IP, ft.Key, g.p.Seed))
	case ScopeVariant:
		return fmt.Sprintf("%s/v%d", ft.Base, hostVariant)
	}
	return ft.Base
}

// hostHash derives a stable per-host token for ScopePerHost values.
func hostHash(ip asndb.IP, key features.Key, seed int64) uint32 {
	f := fnv.New32a()
	var buf [13]byte
	buf[0] = byte(key)
	buf[1], buf[2], buf[3], buf[4] = byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip)
	for i := 0; i < 8; i++ {
		buf[5+i] = byte(seed >> (8 * i))
	}
	f.Write(buf[:])
	return f.Sum32()
}

// injectPseudoHosts places hosts that serve identical pseudo services on
// 1,000+ contiguous ports (Appendix B). The count scales from the
// placement census (not the materialized host list), so it is identical
// under any partition.
func (g *generator) injectPseudoHosts() {
	n := int(float64(g.placed) * g.p.PseudoHostFraction)
	for i := 0; i < n; i++ {
		rng := newRNG(g.p.Seed, "pseudo", uint64(i))
		ip := g.claimFreeIP(rng)
		if ip == 0 || !g.owns(ip) {
			continue
		}
		asn, _ := g.u.routes.Lookup(ip)
		h := NewHost(ip, asn, "pseudo-block")
		lo := uint16(1000 + rng.Intn(50000))
		span := uint16(1000 + rng.Intn(2000))
		hi := lo + span
		if hi < lo { // wrapped
			hi = 65535
		}
		frontend := func(body string) features.Set {
			return features.NewSet(
				features.Value{Key: features.KeyProtocol, Val: features.ProtocolHTTP.String()},
				features.Value{Key: features.KeyHTTPServer, Val: "pseudo-frontend"},
				features.Value{Key: features.KeyHTTPBodyHash, Val: body})
		}
		tmpl := &Service{
			Proto:  features.ProtocolHTTP,
			Feats:  frontend("no-service-here"),
			TTL:    uint8(40 + rng.Intn(25)),
			Pseudo: true,
		}
		h.SetPseudoBlock(lo, hi, tmpl)
		// Pseudo hosts usually also run the real frontend on 80/443.
		h.AddService(Service{Port: 80, Proto: features.ProtocolHTTP, TTL: tmpl.TTL, Feats: frontend("frontend-body")})
		g.u.insertHost(h)
	}
}

// injectMiddleboxes places hosts that complete a SYN handshake on every
// port but never speak a protocol; LZR's fingerprinting discards them.
func (g *generator) injectMiddleboxes() {
	n := int(float64(g.placed) * g.p.MiddleboxFraction)
	for i := 0; i < n; i++ {
		rng := newRNG(g.p.Seed, "middlebox", uint64(i))
		ip := g.claimFreeIP(rng)
		if ip == 0 || !g.owns(ip) {
			continue
		}
		asn, _ := g.u.routes.Lookup(ip)
		h := NewHost(ip, asn, "middlebox")
		h.Middlebox = true
		g.u.insertHost(h)
	}
}

// claimFreeIP draws candidate addresses from rng until one claims, up to
// 16 tries; 0 means every try was already occupied.
func (g *generator) claimFreeIP(rng *rng) asndb.IP {
	for try := 0; try < 16; try++ {
		pfx := g.u.prefixes[rng.Intn(len(g.u.prefixes))]
		ip := pfx.Addr + asndb.IP(rng.Intn(65536))
		if g.claim(ip) {
			return ip
		}
	}
	return 0
}
