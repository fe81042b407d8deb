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
// needed to interpret bandwidth figures against it. Records is a strict
// run, ascending by (IP, port) with no key twice: every constructor here
// emits that order, so a host's records are one slice of it, and
// gps.Run refuses a hand-built set that is not a run. Methods only read
// it, so goroutines may share a dataset.
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
}

// NumServices returns the record count.
func (d *Dataset) NumServices() int { return len(d.Records) }

// IPs returns the distinct responsive addresses in the dataset, sorted.
func (d *Dataset) IPs() []asndb.IP {
	hosts := d.ByHost()
	out := make([]asndb.IP, len(hosts))
	for i, h := range hosts {
		out[i] = h.IP
	}
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

// appendHost appends one universe host's records to out in port order,
// applying the Appendix B pseudo-service rule: hosts serving more than 10
// services are dropped entirely, as are middleboxes.
func appendHost(out []Record, h *netmodel.Host, ports map[uint16]bool) []Record {
	if h.Middlebox || lzr.IsPseudoHost(h) {
		return out
	}
	for _, svc := range h.Services() {
		if ports != nil && !ports[svc.Port] || svc.Pseudo {
			continue
		}
		out = append(out, Record{IP: h.IP, Port: svc.Port, Proto: svc.Proto, Feats: svc.Feats, ASN: h.ASN, TTL: svc.TTL})
	}
	return out
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
		d.Records = appendHost(d.Records, h, portSet)
	}
	return d
}

// SnapshotLZR captures an LZR-style dataset: a uniform random sample of
// the address space scanned across all 65K ports, with Appendix B
// filtering applied.
func SnapshotLZR(u *netmodel.Universe, fraction float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Name:             "lzr",
		SpaceSize:        u.SpaceSize(),
		SampleFraction:   fraction,
		CollectionProbes: uint64(float64(u.SpaceSize()) * fraction * netmodel.NumPorts),
	}
	for _, h := range u.Hosts() {
		if rng.Float64() < fraction {
			d.Records = appendHost(d.Records, h, nil)
		}
	}
	return d
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
	seedSet = &Dataset{Name: d.Name + "-seed", SpaceSize: d.SpaceSize,
		SampleFraction: seedFraction, Ports: d.Ports,
		CollectionProbes: uint64(float64(d.CollectionProbes) * p)}
	testSet = &Dataset{Name: d.Name + "-test", SpaceSize: d.SpaceSize,
		SampleFraction: d.SampleFraction - seedFraction, Ports: d.Ports}
	for _, h := range d.ByHost() { // one draw per IP, ascending
		dst := testSet
		if rng.Float64() < p {
			dst = seedSet
		}
		dst.Records = append(dst.Records, h.Records...)
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
