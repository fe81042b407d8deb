package priors

import (
	"math/rand"
	"testing"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/engine"
	"gps/internal/features"
	"gps/internal/probmodel"
	"gps/internal/probmodel/modeltest"
)

// scenario: a fleet where the SSH service on 222 strongly predicts HTTP on
// 80 (the §5.3 example), plus single-service hosts on 7547.
func scenario() []dataset.HostGroup {
	var hosts []dataset.HostGroup
	mk := func(ipS string, recs ...dataset.Record) {
		ip := asndb.MustParseIP(ipS)
		for i := range recs {
			recs[i].IP = ip
			recs[i].ASN = 1
		}
		hosts = append(hosts, dataset.HostGroup{IP: ip, Records: recs})
	}
	web := dataset.Record{Port: 80, Proto: features.ProtocolHTTP,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "http"})}
	ssh := dataset.Record{Port: 222, Proto: features.ProtocolSSH,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "ssh"},
			features.Value{Key: features.KeySSHBanner, Val: "vendor"})}
	cwmp := dataset.Record{Port: 7547, Proto: features.ProtocolCWMP,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "cwmp"})}

	// Fleet: every 222 host also has 80; many extra hosts have 80 only,
	// so P(80|222)=1 while P(222|80) is low. The most predictive anchor
	// for these hosts is therefore 222.
	mk("10.0.1.1", web, ssh)
	mk("10.0.1.2", web, ssh)
	mk("10.0.1.3", web, ssh)
	for i := 0; i < 9; i++ {
		mk("10.0.2."+string(rune('1'+i)), web)
	}
	// Single-service CWMP hosts in a different /16.
	mk("11.0.0.1", cwmp)
	mk("11.0.0.2", cwmp)
	return hosts
}

func TestBuildChoosesMostPredictiveAnchor(t *testing.T) {
	hosts := scenario()
	m := probmodel.Build(probmodel.Config{Floor: -1, MinSupport: -1}, hosts)
	list := Build(m, hosts, 16, engine.Config{})

	if list.StepBits != 16 {
		t.Errorf("StepBits = %d", list.StepBits)
	}
	byTuple := make(map[string]int)
	for _, tgt := range list.Targets {
		byTuple[tgt.Subnet.String()+"#"+itoa(tgt.Port)] = tgt.Coverage
	}
	// The fleet hosts (both services) anchor on 222: predicting 80 via
	// the 222 anchor (P=1) and 222 via itself... For (IP, 80), best
	// cond comes from 222 (P(80|222)=1). For (IP, 222), best cond from
	// 80 (P(222|80)=3/12=0.25 > 0? yes). So tuples (222, subnet) and
	// (80, subnet) both exist; 222's coverage must include the three
	// fleet services on port 80.
	if byTuple["10.0.0.0/16#222"] < 3 {
		t.Errorf("anchor tuple (222, 10.0.0.0/16) coverage = %d; want >= 3", byTuple["10.0.0.0/16#222"])
	}
	// Single-service hosts contribute their own (port, subnet).
	if byTuple["11.0.0.0/16#7547"] != 2 {
		t.Errorf("tuple (7547, 11.0.0.0/16) coverage = %d; want 2", byTuple["11.0.0.0/16#7547"])
	}
	// Ordering: coverage non-increasing.
	for i := 1; i < len(list.Targets); i++ {
		if list.Targets[i-1].Coverage < list.Targets[i].Coverage {
			t.Fatal("targets not sorted by descending coverage")
		}
	}
}

func TestStepSizeChangesTupleGranularity(t *testing.T) {
	hosts := scenario()
	m := probmodel.Build(probmodel.Config{Floor: -1, MinSupport: -1}, hosts)
	wide := Build(m, hosts, 8, engine.Config{})
	narrow := Build(m, hosts, 24, engine.Config{})
	// Narrow steps split the same services across more, smaller tuples.
	if len(narrow.Targets) < len(wide.Targets) {
		t.Errorf("/24 produced %d targets, /8 produced %d; narrow should be >=",
			len(narrow.Targets), len(wide.Targets))
	}
	cost := func(l List) (probes uint64) {
		for _, tgt := range l.Targets {
			probes += tgt.Subnet.Size()
		}
		return probes
	}
	if cost(wide) <= cost(narrow) {
		t.Error("wide steps must cost more probes than narrow steps")
	}
}

func TestDeterministicOrder(t *testing.T) {
	hosts := scenario()
	m := probmodel.Build(probmodel.Config{Floor: -1, MinSupport: -1}, hosts)
	a := Build(m, hosts, 16, engine.Config{Workers: 1})
	b := Build(m, hosts, 16, engine.Config{Workers: 8})
	if len(a.Targets) != len(b.Targets) {
		t.Fatalf("worker counts changed target count: %d vs %d", len(a.Targets), len(b.Targets))
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("target %d differs between worker counts", i)
		}
	}
}

// TestBuildMatchesPerServiceCalls: the list built from the model's stored
// best conditions is the list the per-service BestCondForHost calls give,
// on a random population and for 1, 2 and 8 workers.
func TestBuildMatchesPerServiceCalls(t *testing.T) {
	hosts := modeltest.Hosts(rand.New(rand.NewSource(35)), 300)
	for _, cfg := range []probmodel.Config{{}, {Floor: -1, MinSupport: -1}, {Floor: 0.5, MinSupport: 4}} {
		m := probmodel.Build(cfg, hosts)
		for _, step := range []uint8{0, 16, 20} {
			want := map[tupleKey]int{}
			for _, h := range hosts {
				for _, ra := range h.Records {
					port := ra.Port
					if best, _, ok := m.BestCondForHost(h, ra.Port); ok && len(h.Records) > 1 {
						port = best.Port
					}
					want[tupleKey{port: port, subnet: asndb.SubnetOf(h.IP, step)}]++
				}
			}
			for _, workers := range []int{1, 2, 8} {
				list := Build(m, hosts, step, engine.Config{Workers: workers})
				if len(list.Targets) != len(want) {
					t.Fatalf("/%d workers %d: %d targets; want %d", step, workers, len(list.Targets), len(want))
				}
				for i, tgt := range list.Targets {
					if got := want[tupleKey{port: tgt.Port, subnet: tgt.Subnet}]; got != tgt.Coverage {
						t.Fatalf("/%d workers %d: target %v covers %d; want %d", step, workers, tgt, tgt.Coverage, got)
					}
					if i > 0 && list.Targets[i-1].Coverage < tgt.Coverage {
						t.Fatalf("/%d workers %d: targets not by descending coverage", step, workers)
					}
				}
			}
		}
	}
}

func itoa(v uint16) string {
	if v == 0 {
		return "0"
	}
	var buf [5]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestBuildPanicsOnOtherHosts: the list groups the best conditions the
// model stored for its own seed hosts, so hosts the model was not built
// from — another order, one host more, a host with a record less — are a
// caller's bug, not a list.
func TestBuildPanicsOnOtherHosts(t *testing.T) {
	hosts := scenario()
	m := probmodel.Build(probmodel.Config{Floor: -1, MinSupport: -1}, hosts)
	short := append([]dataset.HostGroup(nil), hosts...)
	short[0].Records = short[0].Records[:1]
	for name, other := range map[string][]dataset.HostGroup{
		"reordered": {hosts[1], hosts[0]},
		"longer":    append(append([]dataset.HostGroup(nil), hosts...), hosts[0]),
		"shorter":   short,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Build over hosts the model was not built from did not panic", name)
				}
			}()
			Build(m, other, 16, engine.Config{Workers: 1})
		}()
	}
}
