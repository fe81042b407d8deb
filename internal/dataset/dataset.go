// Package dataset builds and manipulates ground-truth service datasets.
// The paper evaluates GPS against two datasets (§6.1): the Censys Universal
// dataset (100% IPv4 scans of the ~2K most popular ports) and an LZR scan
// (1% of the address space across all 65K ports). This package snapshots
// the synthetic universe in both shapes, applies the Appendix B
// real-service filtering, and produces the seed/test splits used
// throughout the evaluation.
package dataset

import (
	"math/rand"
	"sort"

	"gps/internal/asndb"
	"gps/internal/features"
	"gps/internal/lzr"
	"gps/internal/netmodel"
)

// Record is one observed service: the unit of both training and ground
// truth. Feats is shared with the universe; callers must not mutate it.
type Record struct {
	IP    asndb.IP
	Port  uint16
	Proto features.Protocol
	Feats features.Set
	ASN   asndb.ASN
	TTL   uint8
}

// Key returns the (IP, port) identity of the record.
func (r Record) Key() netmodel.Key { return netmodel.Key{IP: r.IP, Port: r.Port} }

// Dataset is a named collection of service records plus the metadata
// needed to interpret bandwidth figures against it.
type Dataset struct {
	Name    string
	Records []Record
	// SpaceSize is the scannable address count of the originating
	// universe; bandwidth in "100% scans" is probes/SpaceSize.
	SpaceSize uint64
	// SampleFraction is the share of the address space the snapshot
	// covered (1.0 for Censys-style 100% scans).
	SampleFraction float64
	// Ports is the set of ports the snapshot scanned (nil = all 65536).
	Ports []uint16
	// CollectionProbes is the bandwidth a real scan would have spent
	// collecting this snapshot.
	CollectionProbes uint64

	// byIP holds record indexes per IP, built lazily. The lazy build is
	// NOT safe for concurrent first use: methods that call index()
	// (IPs, Split) must not race on a fresh
	// dataset. ByHost — the one accessor sharded pipelines call
	// concurrently on a shared seed set — deliberately does not use it.
	byIP map[asndb.IP][]int
}

// NumServices returns the record count.
func (d *Dataset) NumServices() int { return len(d.Records) }

// IPs returns the distinct responsive addresses in the dataset, sorted.
func (d *Dataset) IPs() []asndb.IP {
	d.index()
	out := make([]asndb.IP, 0, len(d.byIP))
	for ip := range d.byIP {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PortPopulation returns responsive-IP counts per port.
func (d *Dataset) PortPopulation() []int {
	pop := make([]int, netmodel.NumPorts)
	for _, r := range d.Records {
		pop[r.Port]++
	}
	return pop
}

func (d *Dataset) index() {
	if d.byIP != nil {
		return
	}
	d.byIP = make(map[asndb.IP][]int)
	for i, r := range d.Records {
		d.byIP[r.IP] = append(d.byIP[r.IP], i)
	}
}

// hostRecords converts one universe host into records, applying the
// Appendix B pseudo-service rule: hosts serving more than 10 services are
// dropped entirely, as are middleboxes. It returns nil for filtered hosts.
func hostRecords(h *netmodel.Host, ports map[uint16]bool) []Record {
	if h.Middlebox || lzr.IsPseudoHost(h) {
		return nil
	}
	var out []Record
	for i := range h.Services() {
		svc := &h.Services()[i]
		if ports != nil && !ports[svc.Port] || svc.Pseudo {
			continue
		}
		out = append(out, serviceRecord(h, svc))
	}
	return out
}

// serviceRecord is the record of one of h's services.
func serviceRecord(h *netmodel.Host, svc *netmodel.Service) Record {
	return Record{IP: h.IP, Port: svc.Port, Proto: svc.Proto, Feats: svc.Feats, ASN: h.ASN, TTL: svc.TTL}
}

// TopPorts returns the k most populated ports of the universe in
// descending popularity, breaking ties by port number. This mirrors how
// Censys chooses which ports to scan at 100%.
func TopPorts(u *netmodel.Universe, k int) []uint16 {
	pop := u.PortPopulation()
	type pc struct {
		port  uint16
		count int
	}
	all := make([]pc, 0, 4096)
	for p, c := range pop {
		if c > 0 {
			all = append(all, pc{uint16(p), c})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].port < all[j].port
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint16, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].port
	}
	return out
}

// SnapshotCensys captures a Censys-style dataset: 100% scans of the top-k
// most popular ports, with Appendix B filtering applied.
func SnapshotCensys(u *netmodel.Universe, k int) *Dataset {
	ports := TopPorts(u, k)
	portSet := make(map[uint16]bool, len(ports))
	for _, p := range ports {
		portSet[p] = true
	}
	d := &Dataset{
		Name:             "censys",
		SpaceSize:        u.SpaceSize(),
		SampleFraction:   1,
		Ports:            ports,
		CollectionProbes: u.SpaceSize() * uint64(len(ports)),
	}
	for _, h := range u.Hosts() {
		d.Records = append(d.Records, hostRecords(h, portSet)...)
	}
	return d
}

// SnapshotLZR captures an LZR-style dataset: a uniform random sample of
// the address space scanned across all 65K ports.
func SnapshotLZR(u *netmodel.Universe, fraction float64, seed int64) *Dataset {
	return SnapshotLZROpts(u, fraction, seed, true)
}

// SnapshotLZROpts is SnapshotLZR with the Appendix B pseudo-service filter
// optional. Disabling the filter (applyFilter=false) exists for the
// ablation study: it shows what GPS learns when pseudo services pollute
// the seed set.
func SnapshotLZROpts(u *netmodel.Universe, fraction float64, seed int64, applyFilter bool) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Name:             "lzr",
		SpaceSize:        u.SpaceSize(),
		SampleFraction:   fraction,
		CollectionProbes: uint64(float64(u.SpaceSize()) * fraction * netmodel.NumPorts),
	}
	for _, h := range u.Hosts() {
		if rng.Float64() >= fraction {
			continue
		}
		if applyFilter {
			d.Records = append(d.Records, hostRecords(h, nil)...)
			continue
		}
		d.Records = append(d.Records, hostRecordsUnfiltered(h)...)
	}
	return d
}

// hostRecordsUnfiltered keeps middleboxes out (they serve nothing to
// record) but admits pseudo-service hosts, truncating each pseudo block to
// a representative slice so datasets stay bounded.
func hostRecordsUnfiltered(h *netmodel.Host) []Record {
	var out []Record
	for i := range h.Services() {
		out = append(out, serviceRecord(h, &h.Services()[i]))
	}
	if lo, hi, ok := h.PseudoBlock(); ok {
		const keep = 64 // representative slice of the block
		for p := int(lo); p <= int(hi) && p < int(lo)+keep; p++ {
			svc, _ := h.ServiceAt(uint16(p))
			out = append(out, serviceRecord(h, svc))
		}
	}
	return out
}

// Split partitions the dataset by IP address into a seed set covering
// seedFraction of the dataset's sampled space and a test set with the
// rest, exactly as §6.1 randomly assigns each IP and its services to one
// side. seedFraction is relative to the full address space, like the
// paper's "2% seed"; it must not exceed the dataset's own sample fraction.
func (d *Dataset) Split(seedFraction float64, seed int64) (seedSet, testSet *Dataset) {
	p := seedFraction / d.SampleFraction
	if p > 1 {
		p = 1
	}
	rng := rand.New(rand.NewSource(seed))
	d.index()
	ips := d.IPs()
	seedSet = &Dataset{Name: d.Name + "-seed", SpaceSize: d.SpaceSize,
		SampleFraction: seedFraction, Ports: d.Ports,
		CollectionProbes: uint64(float64(d.CollectionProbes) * p)}
	testSet = &Dataset{Name: d.Name + "-test", SpaceSize: d.SpaceSize,
		SampleFraction: d.SampleFraction - seedFraction, Ports: d.Ports}
	for _, ip := range ips {
		dst := testSet
		if rng.Float64() < p {
			dst = seedSet
		}
		for _, idx := range d.byIP[ip] {
			dst.Records = append(dst.Records, d.Records[idx])
		}
	}
	return seedSet, testSet
}

// EligiblePorts returns ports with more than minIPs responsive addresses
// in the dataset. The paper filters the all-port evaluation to ports with
// greater than two responsive IPs (§6.1), since no pattern can be learned
// from a single example.
func (d *Dataset) EligiblePorts(minIPs int) map[uint16]bool {
	pop := d.PortPopulation()
	out := make(map[uint16]bool)
	for p, c := range pop {
		if c > minIPs {
			out[uint16(p)] = true
		}
	}
	return out
}

// FilterPorts returns a copy of the dataset keeping only records on the
// given ports.
func (d *Dataset) FilterPorts(keep map[uint16]bool) *Dataset {
	out := &Dataset{Name: d.Name + "-filtered", SpaceSize: d.SpaceSize,
		SampleFraction: d.SampleFraction, Ports: d.Ports,
		CollectionProbes: d.CollectionProbes}
	for _, r := range d.Records {
		if keep[r.Port] {
			out.Records = append(out.Records, r)
		}
	}
	return out
}
