package netmodel

import (
	"cmp"
	"slices"
	"sort"

	"gps/internal/asndb"
)

// NumPorts is the size of the TCP port space GPS predicts over.
const NumPorts = 65536

// ASInfo describes one synthetic autonomous system.
type ASInfo struct {
	Num      asndb.ASN
	Name     string
	Type     ASType
	Prefixes []asndb.Prefix // the /16 blocks announced by this AS
}

// ASType classifies an AS by the kind of hosts it contains, which drives
// which device fleets concentrate in it.
type ASType uint8

// AS categories used by the generator.
const (
	ASResidential ASType = iota // consumer ISPs: routers, IoT, CPE
	ASHosting                   // datacenters: web, mail, DB servers
	ASEnterprise                // corporate networks: mixed servers
	ASMobile                    // mobile carriers: sparse CGN-style hosts
	ASAcademic                  // universities: mixed, lightly filtered
	numASTypes
)

var asTypeNames = [...]string{"residential", "hosting", "enterprise", "mobile", "academic"}

// String names the AS type.
func (t ASType) String() string {
	if int(t) < len(asTypeNames) {
		return asTypeNames[t]
	}
	return "unknown"
}

// Universe is the synthetic Internet: an allocated slice of IPv4 space, a
// routing table, and a population of hosts. It doubles as the scan target:
// the scanner substrate probes it one (IP, port) at a time.
//
// A Universe is immutable once Generate or Churn returns it, and
// is safe for concurrent reads: finalize builds every index it has,
// including the port-major responder index ResponsiveIn reads, before
// the universe is handed out, and nothing is built lazily.
//
// A partitioned universe (generated with Params.Partition) carries the
// full global structure — ASes, routes, prefixes, space size — but holds
// hosts only at owned addresses; every host it holds is byte-identical
// to the full universe's.
type Universe struct {
	ases     []ASInfo
	routes   *asndb.Table
	prefixes []asndb.Prefix // all announced /16s, sorted
	hosts    map[asndb.IP]*Host
	hostList []*Host // sorted by IP
	seed     int64
	part     *Partition // nil = full universe

	// The responder index. respIPs holds the IP of every explicit
	// service, port-major: the IPs serving portRuns[0].port in ascending
	// order, then those serving portRuns[1].port, and so on. wild lists,
	// by IP, the hosts that also answer ports outside their services
	// (middleboxes and pseudo-block hosts).
	respIPs  []asndb.IP
	portRuns []portRun // ascending by port
	wild     []*Host
}

// portRun is one port's run in the responder index: respIPs[prev.end:end]
// serve port, where prev is the run before it.
type portRun struct {
	port uint16
	end  uint32
}

// Seed returns the generator seed that produced this universe.
func (u *Universe) Seed() int64 { return u.seed }

// ASes returns the autonomous systems of the universe.
func (u *Universe) ASes() []ASInfo { return u.ases }

// Prefixes returns the announced /16 blocks in ascending order. The
// scannable address space is exactly the union of these blocks.
func (u *Universe) Prefixes() []asndb.Prefix { return u.prefixes }

// SpaceSize returns the number of scannable addresses. One "100% scan" in
// the paper's bandwidth unit is SpaceSize probes (one full pass on one
// port).
func (u *Universe) SpaceSize() uint64 {
	var n uint64
	for _, p := range u.prefixes {
		n += p.Size()
	}
	return n
}

// NumHosts returns the number of responsive hosts.
func (u *Universe) NumHosts() int { return len(u.hostList) }

// HostAt returns the host at an address, if any.
func (u *Universe) HostAt(ip asndb.IP) (*Host, bool) {
	h, ok := u.hosts[ip]
	return h, ok
}

// Hosts returns all hosts sorted by IP. Callers must not modify the slice.
func (u *Universe) Hosts() []*Host { return u.hostList }

// ServiceAt returns the service at (ip, port), if one exists (including
// synthesized pseudo-block services).
func (u *Universe) ServiceAt(ip asndb.IP, port uint16) (*Service, bool) {
	h, ok := u.hosts[ip]
	if !ok {
		return nil, false
	}
	return h.ServiceAt(port)
}

// Responsive reports whether a SYN probe to (ip, port) is acknowledged.
// This is the scanner's view of the world.
func (u *Universe) Responsive(ip asndb.IP, port uint16) bool {
	h, ok := u.hosts[ip]
	return ok && h.Responsive(port)
}

// ASNOf returns the ASN announcing ip's prefix.
func (u *Universe) ASNOf(ip asndb.IP) (asndb.ASN, bool) { return u.routes.Lookup(ip) }

// IndexOf maps a scannable address to its dense index in [0, SpaceSize):
// the announced /16s in ascending order, 65536 addresses each. ok is
// false when ip is outside the announced space.
func (u *Universe) IndexOf(ip asndb.IP) (uint64, bool) {
	want := asndb.SubnetOf(ip, 16)
	i := sort.Search(len(u.prefixes), func(i int) bool { return u.prefixes[i].Addr >= want.Addr })
	if i == len(u.prefixes) || u.prefixes[i].Addr != want.Addr {
		return 0, false
	}
	return uint64(i)<<16 | uint64(ip&0xffff), true
}

// ResponsiveIn returns every address inside prefix that would acknowledge
// a SYN on port, in ascending order. It is semantically identical to
// probing each address in the prefix, but reads the responder index: a
// binary search finds the port's run, two more bound the prefix inside
// it and inside the hosts that answer outside their services, and one
// merge joins the two. It runs in O(log n + hits) however many hosts the
// prefix holds; callers must account the full prefix size as probe
// bandwidth.
func (u *Universe) ResponsiveIn(p asndb.Prefix, port uint16) []asndb.IP {
	first, last := p.First(), p.Last()
	var hits []asndb.IP
	if r, ok := slices.BinarySearchFunc(u.portRuns, port, func(r portRun, port uint16) int {
		return cmp.Compare(r.port, port)
	}); ok {
		start := uint32(0)
		if r > 0 {
			start = u.portRuns[r-1].end
		}
		run := u.respIPs[start:u.portRuns[r].end]
		lo, _ := slices.BinarySearch(run, first)
		hi, _ := slices.BinarySearchFunc(run, last, func(ip, last asndb.IP) int { return afterLast(ip, last) })
		hits = run[lo:hi]
	}
	lo, _ := slices.BinarySearchFunc(u.wild, first, func(h *Host, first asndb.IP) int { return cmp.Compare(h.IP, first) })
	hi, _ := slices.BinarySearchFunc(u.wild, last, func(h *Host, last asndb.IP) int { return afterLast(h.IP, last) })
	wild := u.wild[lo:hi]
	out := make([]asndb.IP, 0, len(hits)+len(wild))
	i := 0
	for _, h := range wild {
		if !h.Middlebox && !h.inPseudoBlock(port) {
			continue
		}
		for ; i < len(hits) && hits[i] < h.IP; i++ {
			out = append(out, hits[i])
		}
		if i < len(hits) && hits[i] == h.IP {
			i++ // an explicit service inside the host's own pseudo block
		}
		out = append(out, h.IP)
	}
	return append(out, hits[i:]...)
}

// afterLast orders ip against the upper bound last so that a binary
// search finds the first address past it, with no overflow at
// 255.255.255.255.
func afterLast(ip, last asndb.IP) int {
	if ip <= last {
		return -1
	}
	return 1
}

// AnnouncedWithin intersects a prefix with the announced address space,
// returning the announced /16 blocks (or sub-blocks) it covers. Scanners
// use this so that a large scanning step (e.g., /0) costs the announced
// space rather than all 2^32 addresses — unannounced space never receives
// probes on the real Internet either (ZMap skips bogons and reserved
// blocks).
func (u *Universe) AnnouncedWithin(p asndb.Prefix) []asndb.Prefix {
	if p.Bits >= 16 {
		// p sits inside a single /16: announced iff that /16 is.
		want := asndb.SubnetOf(p.First(), 16)
		for _, pfx := range u.prefixes {
			if pfx.Addr == want.Addr {
				return []asndb.Prefix{p}
			}
		}
		return nil
	}
	var out []asndb.Prefix
	for _, pfx := range u.prefixes {
		if p.Contains(pfx.First()) {
			out = append(out, pfx)
		}
	}
	return out
}

// NumServices counts every service in the universe, including pseudo
// services and forwarded ports.
func (u *Universe) NumServices() int {
	n := 0
	for _, h := range u.hostList {
		n += h.NumServices()
	}
	return n
}

// PortPopulation counts responsive IPs per port across all real (explicit)
// services. It ignores pseudo blocks and middleboxes, matching the
// "real services" filtering of Appendix B.
func (u *Universe) PortPopulation() []int {
	pop := make([]int, NumPorts)
	start := uint32(0)
	for _, r := range u.portRuns {
		pop[r.port] = int(r.end - start)
		start = r.end
	}
	return pop
}

// insertHost registers a host; used by the generator and churn.
func (u *Universe) insertHost(h *Host) {
	u.hosts[h.IP] = h
	u.hostList = append(u.hostList, h)
}

// finalize sorts the host and prefix lists after generation or churn
// and builds the responder index.
func (u *Universe) finalize() {
	sort.Slice(u.hostList, func(i, j int) bool { return u.hostList[i].IP < u.hostList[j].IP })
	sort.Slice(u.prefixes, func(i, j int) bool { return u.prefixes[i].Addr < u.prefixes[j].Addr })
	u.indexResponders()
}

// indexResponders builds the responder index. Walking the IP-sorted host
// list and each host's ascending ports emits the services in (IP, port)
// order, so one stable radix pass on the port's two bytes leaves them
// port-major with IPs ascending: linear in the services, with no
// comparison sort.
func (u *Universe) indexResponders() {
	n := 0
	for _, h := range u.hostList {
		n += len(h.services)
	}
	keys := make([]Pair[struct{}], 0, n)
	for _, h := range u.hostList {
		for i := range h.services {
			keys = append(keys, Pair[struct{}]{Key: Key{IP: h.IP, Port: h.services[i].Port}})
		}
		if h.Middlebox || h.pseudoTmpl != nil {
			u.wild = append(u.wild, h)
		}
	}
	u.respIPs = make([]asndb.IP, n)
	if n == 0 {
		return
	}
	keys = radixSort(keys, make([]Pair[struct{}], n), portDigits)
	for i, k := range keys {
		u.respIPs[i] = k.Key.IP
		if i+1 == n || keys[i+1].Key.Port != k.Key.Port {
			u.portRuns = append(u.portRuns, portRun{port: k.Key.Port, end: uint32(i + 1)})
		}
	}
}
