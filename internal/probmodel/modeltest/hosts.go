// Package modeltest generates the random seed populations that the
// probmodel and predict property tests compare the interned tables against
// their string-keyed oracles on.
package modeltest

import (
	"fmt"
	"math/rand"
	"sort"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/features"
)

// Ports is the pool every generated service draws its port from; small,
// so conditions co-occur and rows hold several ports.
var Ports = []uint16{22, 80, 443, 2222, 7547, 8080, 8443, 65535}

var appKeys = []features.Key{
	features.KeyProtocol, features.KeyTLSCertHash, features.KeyHTTPServer,
	features.KeyHTTPTitle, features.KeySSHBanner, features.KeyIPMIBanner,
}

// Hosts returns n hosts, ascending by IP with duplicate-free ports
// ascending within a host, the shape dataset.ByHost produces. About a
// third serve one port; the rest serve up to five. Addresses fall in a
// handful of /16s (spread over several /20s each) announced by three ASes, and banner
// values mix a few shared ones (the empty string among them) with values
// unique to one service.
func Hosts(rng *rand.Rand, n int) []dataset.HostGroup {
	hosts := make([]dataset.HostGroup, 0, n)
	ip := asndb.IP(0x0a000000)
	for i := 0; i < n; i++ {
		ip += asndb.IP(1 + rng.Intn(1<<11))
		nports := 1
		if rng.Intn(3) > 0 {
			nports = 2 + rng.Intn(4)
		}
		hosts = append(hosts, dataset.HostGroup{IP: ip, Records: records(rng, ip, nports, "seed")})
	}
	return hosts
}

// Anchors returns n single services as a priors scan would find them on
// hosts outside the seed: some carry only values the seed shares, some
// carry banners, subnets and AS numbers no seed host showed.
func Anchors(rng *rand.Rand, n int) []dataset.Record {
	var out []dataset.Record
	for i := 0; i < n; i++ {
		ip := asndb.IP(0x0a000000 + uint32(rng.Intn(1<<19)))
		if rng.Intn(4) == 0 {
			ip = asndb.IP(0xc0a80000 + uint32(rng.Intn(1<<16))) // a /16 the seed never saw
		}
		r := records(rng, ip, 1, "anchor")[0]
		if rng.Intn(4) == 0 {
			r.ASN = asndb.ASN(70000 + rng.Intn(3))
		}
		out = append(out, r)
	}
	return out
}

func records(rng *rand.Rand, ip asndb.IP, nports int, tag string) []dataset.Record {
	recs := make([]dataset.Record, 0, nports)
	for _, pi := range rng.Perm(len(Ports))[:nports] {
		r := dataset.Record{IP: ip, Port: Ports[pi], ASN: asndb.ASN(64500 + uint32(ip>>16)%3)}
		var vals []features.Value
		for _, k := range appKeys {
			switch rng.Intn(5) {
			case 0, 1: // shared: a fleet value, sometimes the empty string
				vals = append(vals, features.Value{Key: k, Val: []string{"", "fleetA", "fleetB", "nginx"}[rng.Intn(4)]})
			case 2: // unique to this service
				vals = append(vals, features.Value{Key: k, Val: fmt.Sprintf("%s-%v-%d-%d", tag, ip, r.Port, k)})
			}
		}
		r.Feats = features.NewSet(vals...)
		recs = append(recs, r)
	}
	// Ascending by port, as ByHost leaves a host's records.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Port < recs[j].Port })
	return recs
}
