package dataset

import (
	"reflect"
	"sync"
	"testing"

	"gps/internal/netmodel"
)

func testUniverse(t *testing.T) *netmodel.Universe {
	t.Helper()
	return netmodel.Generate(netmodel.TestParams(3))
}

func TestSnapshotCensysFiltersAndScopes(t *testing.T) {
	u := testUniverse(t)
	d := SnapshotCensys(u, 50)
	if len(d.Ports) != 50 {
		t.Fatalf("snapshot covers %d ports; want 50", len(d.Ports))
	}
	portSet := make(map[uint16]bool)
	for _, p := range d.Ports {
		portSet[p] = true
	}
	for _, r := range d.Records {
		if !portSet[r.Port] {
			t.Fatalf("record on un-snapshotted port %d", r.Port)
		}
		h, ok := u.HostAt(r.IP)
		if !ok {
			t.Fatal("record for nonexistent host")
		}
		if h.Middlebox {
			t.Fatal("middlebox leaked into dataset")
		}
		if h.NumServices() > 10 {
			t.Fatal("pseudo-service host leaked into dataset (Appendix B filter)")
		}
	}
	if d.CollectionProbes != u.SpaceSize()*50 {
		t.Errorf("collection probes = %d; want %d", d.CollectionProbes, u.SpaceSize()*50)
	}
	if d.SampleFraction != 1 {
		t.Error("Censys snapshot must be a 100% sample")
	}
}

func TestSnapshotLZRSampling(t *testing.T) {
	u := testUniverse(t)
	d := SnapshotLZR(u, 0.5, 7)
	hosts := len(d.IPs())
	// Note: universe hosts include middleboxes/pseudo hosts that the
	// snapshot filters, so compare against the filtered population.
	total := 0
	for _, h := range u.Hosts() {
		if !h.Middlebox && h.NumServices() <= 10 {
			total++
		}
	}
	if hosts < total/3 || hosts > 2*total/3 {
		t.Errorf("0.5 sample captured %d of %d hosts", hosts, total)
	}
	if d.CollectionProbes != uint64(0.5*float64(u.SpaceSize()))*65536 {
		t.Errorf("collection probes = %d", d.CollectionProbes)
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	u := testUniverse(t)
	d := SnapshotLZR(u, 0.5, 7)
	seed, test := d.Split(0.1, 9)
	seedIPs := make(map[uint32]bool)
	for _, ip := range seed.IPs() {
		seedIPs[uint32(ip)] = true
	}
	for _, ip := range test.IPs() {
		if seedIPs[uint32(ip)] {
			t.Fatalf("IP %v in both seed and test", ip)
		}
	}
	if seed.NumServices()+test.NumServices() != d.NumServices() {
		t.Errorf("split lost services: %d + %d != %d",
			seed.NumServices(), test.NumServices(), d.NumServices())
	}
	// Roughly 20% of the sampled IPs (0.1 of space / 0.5 sample).
	frac := float64(len(seed.IPs())) / float64(len(d.IPs()))
	if frac < 0.1 || frac > 0.35 {
		t.Errorf("seed fraction of IPs = %.2f; want ~0.2", frac)
	}
}

func TestEligiblePortsAndFilter(t *testing.T) {
	u := testUniverse(t)
	d := SnapshotLZR(u, 0.5, 7)
	eligible := d.EligiblePorts(2)
	pop := d.PortPopulation()
	for p, c := range pop {
		if (c > 2) != eligible[uint16(p)] {
			t.Fatalf("port %d count %d eligibility wrong", p, c)
		}
	}
	f := d.FilterPorts(eligible)
	for _, r := range f.Records {
		if !eligible[r.Port] {
			t.Fatal("filtered dataset contains ineligible port")
		}
	}
	if f.NumServices() >= d.NumServices() {
		t.Error("filter removed nothing; expected a long tail of rare ports")
	}
}

func TestByHostSortedAndComplete(t *testing.T) {
	u := testUniverse(t)
	d := SnapshotLZR(u, 0.3, 7)
	groups := d.ByHost()
	n := 0
	for i, g := range groups {
		if i > 0 && groups[i-1].IP >= g.IP {
			t.Fatal("host groups not sorted by IP")
		}
		for j := 1; j < len(g.Records); j++ {
			if g.Records[j-1].Port >= g.Records[j].Port {
				t.Fatal("records within host not sorted by port")
			}
		}
		n += len(g.Records)
	}
	if n != d.NumServices() {
		t.Errorf("ByHost covers %d records; want %d", n, d.NumServices())
	}
}

func TestTopPortsOrdering(t *testing.T) {
	u := testUniverse(t)
	ports := TopPorts(u, 10)
	if len(ports) != 10 {
		t.Fatalf("TopPorts returned %d", len(ports))
	}
	pop := u.PortPopulation()
	for i := 1; i < len(ports); i++ {
		if pop[ports[i-1]] < pop[ports[i]] {
			t.Fatal("TopPorts not in descending popularity")
		}
	}
}

func TestRecordKey(t *testing.T) {
	r := Record{IP: 42, Port: 80}
	k := r.Key()
	if k.IP != 42 || k.Port != 80 {
		t.Error("Key() wrong")
	}
}

// TestByHostGroupsAreClipped: a host group aliases the dataset, so its
// capacity ends at the host's last record and an append to it copies
// instead of overwriting the next host's first record.
func TestByHostGroupsAreClipped(t *testing.T) {
	d := SnapshotLZR(testUniverse(t), 0.3, 7)
	groups := d.ByHost()
	if len(groups) < 2 {
		t.Fatal("need two host groups")
	}
	next := groups[1].Records[0].Key()
	_ = append(groups[0].Records, Record{IP: groups[0].IP, Port: 65535})
	if groups[1].Records[0].Key() != next || d.Records[len(groups[0].Records)].Key() != next {
		t.Fatal("appending to one host group wrote into the next")
	}
}

// TestByHostConcurrent guards the sharded fan-out contract: N pipelines
// share one broadcast seed dataset and all call ByHost, IPs and Split
// concurrently on a fresh one. Every accessor must be a pure read (run
// under -race in CI).
func TestByHostConcurrent(t *testing.T) {
	u := netmodel.Generate(netmodel.TestParams(3))
	ref := SnapshotLZR(u, 0.2, 5)
	wantHosts, wantIPs := len(ref.ByHost()), len(ref.IPs())
	refSeed, _ := ref.Split(0.05, 9)
	fresh := SnapshotLZR(u, 0.2, 5)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got := len(fresh.ByHost()); got != wantHosts {
				t.Errorf("concurrent ByHost returned %d hosts; want %d", got, wantHosts)
			}
			if got := len(fresh.IPs()); got != wantIPs {
				t.Errorf("concurrent IPs returned %d addresses; want %d", got, wantIPs)
			}
			if seed, _ := fresh.Split(0.05, 9); !reflect.DeepEqual(seed.Records, refSeed.Records) {
				t.Error("concurrent Split differs from a lone one")
			}
		}()
	}
	close(start)
	wg.Wait()
}
