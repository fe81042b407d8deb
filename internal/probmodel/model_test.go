package probmodel

import (
	"math"
	"testing"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/features"
)

// handHosts builds a tiny hand-checkable population:
//
//	3 hosts in 10.0.0.0/16 (AS1): ports {80, 443}, HTTP server "fleetA"
//	2 hosts in 10.0.0.0/16 (AS1): ports {80}       HTTP server "fleetA"
//	2 hosts in 11.0.0.0/16 (AS2): ports {22, 8080}, SSH banner "fleetB"
//
// So: P(443 | 80) = 3/5, P(443 | 80, server=fleetA) = 3/5,
// P(8080 | 22) = 1, P(80 | 443) = 1.
func handHosts() []dataset.HostGroup {
	var hosts []dataset.HostGroup
	mk := func(ipS string, asn asndb.ASN, recs ...dataset.Record) {
		ip := asndb.MustParseIP(ipS)
		for i := range recs {
			recs[i].IP = ip
			recs[i].ASN = asn
		}
		hosts = append(hosts, dataset.HostGroup{IP: ip, Records: recs})
	}
	web := func(port uint16) dataset.Record {
		return dataset.Record{Port: port, Proto: features.ProtocolHTTP,
			Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "http"},
				features.Value{Key: features.KeyHTTPServer, Val: "fleetA"})}
	}
	tls := func() dataset.Record {
		return dataset.Record{Port: 443, Proto: features.ProtocolTLS,
			Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "tls"})}
	}
	ssh := func() dataset.Record {
		return dataset.Record{Port: 22, Proto: features.ProtocolSSH,
			Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "ssh"},
				features.Value{Key: features.KeySSHBanner, Val: "fleetB"})}
	}
	alt := func() dataset.Record {
		return dataset.Record{Port: 8080, Proto: features.ProtocolHTTP,
			Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "http"})}
	}
	mk("10.0.0.1", 1, web(80), tls())
	mk("10.0.0.2", 1, web(80), tls())
	mk("10.0.0.3", 1, web(80), tls())
	mk("10.0.0.4", 1, web(80))
	mk("10.0.0.5", 1, web(80))
	mk("11.0.0.1", 2, ssh(), alt())
	mk("11.0.0.2", 2, ssh(), alt())
	return hosts
}

func TestProbHandComputed(t *testing.T) {
	m := Build(Config{Floor: -1, MinSupport: -1}, handHosts())
	cases := []struct {
		cond Cond
		port uint16
		want float64
	}{
		{Cond{Port: 80}, 443, 3.0 / 5},
		{Cond{Port: 443}, 80, 1},
		{Cond{Port: 22}, 8080, 1},
		{Cond{Port: 8080}, 22, 1},
		{Cond{Port: 80, AppKey: features.KeyHTTPServer, AppVal: "fleetA"}, 443, 3.0 / 5},
		{Cond{Port: 80, NetKey: features.KeySubnet16, NetVal: "10.0.0.0/16"}, 443, 3.0 / 5},
		{Cond{Port: 80, NetKey: features.KeyASN, NetVal: "AS1"}, 443, 3.0 / 5},
		{Cond{Port: 80}, 22, 0},   // never co-occurs
		{Cond{Port: 9999}, 80, 0}, // unseen condition
	}
	for _, c := range cases {
		if got := m.Prob(c.cond, c.port); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P(%d | %v) = %f; want %f", c.port, c.cond, got, c.want)
		}
	}
}

func TestCondHostCounts(t *testing.T) {
	m := Build(Config{Floor: -1, MinSupport: -1}, handHosts())
	if got := m.CondHosts(Cond{Port: 80}); got != 5 {
		t.Errorf("CondHosts(80) = %d; want 5", got)
	}
	if got := m.CondHosts(Cond{Port: 22, AppKey: features.KeySSHBanner, AppVal: "fleetB"}); got != 2 {
		t.Errorf("CondHosts(22, banner) = %d; want 2", got)
	}
}

func TestFloorDiscards(t *testing.T) {
	// With a floor above 3/5, the 80->443 pattern must vanish.
	m := Build(Config{Floor: 0.7, MinSupport: -1}, handHosts())
	if got := m.Prob(Cond{Port: 80}, 443); got != 0 {
		t.Errorf("floored P = %f; want 0", got)
	}
	if got := m.Prob(Cond{Port: 443}, 80); got != 1 {
		t.Errorf("P above floor = %f; want 1", got)
	}
}

func TestMinSupport(t *testing.T) {
	// A condition seen on one host only must not predict with default
	// MinSupport=2.
	hosts := handHosts()
	hosts = append(hosts, dataset.HostGroup{
		IP: asndb.MustParseIP("12.0.0.1"),
		Records: []dataset.Record{
			{IP: asndb.MustParseIP("12.0.0.1"), Port: 7777, ASN: 3,
				Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "http"})},
			{IP: asndb.MustParseIP("12.0.0.1"), Port: 8888, ASN: 3,
				Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "http"})},
		},
	})
	m := Build(Config{Floor: -1}, hosts) // default MinSupport 2
	if got := m.Prob(Cond{Port: 7777}, 8888); got != 0 {
		t.Errorf("singleton condition predicted with P=%f; want 0", got)
	}
	m2 := Build(Config{Floor: -1, MinSupport: -1}, hosts)
	if got := m2.Prob(Cond{Port: 7777}, 8888); got != 1 {
		t.Errorf("with support disabled P=%f; want 1", got)
	}
}

func TestFamilyFiltering(t *testing.T) {
	m := Build(Config{Families: FamilySet(0).With(FamilyT), Floor: -1, MinSupport: -1}, handHosts())
	if got := m.Prob(Cond{Port: 80, AppKey: features.KeyHTTPServer, AppVal: "fleetA"}, 443); got != 0 {
		t.Errorf("TA condition active in transport-only model: %f", got)
	}
	if got := m.Prob(Cond{Port: 80}, 443); got != 3.0/5 {
		t.Errorf("T condition missing: %f", got)
	}
}

func TestAppKeyRestriction(t *testing.T) {
	m := Build(Config{Floor: -1, MinSupport: -1,
		AppKeys: []features.Key{features.KeyProtocol}}, handHosts())
	if got := m.Prob(Cond{Port: 80, AppKey: features.KeyHTTPServer, AppVal: "fleetA"}, 443); got != 0 {
		t.Errorf("disabled app key still active: %f", got)
	}
	if got := m.Prob(Cond{Port: 80, AppKey: features.KeyProtocol, AppVal: "http"}, 443); got == 0 {
		t.Error("enabled app key inactive")
	}
}

func TestBestCondForHost(t *testing.T) {
	m := Build(Config{Floor: -1, MinSupport: -1}, handHosts())
	h := handHosts()[0] // 10.0.0.1 with 80 and 443
	best, p, ok := m.BestCondForHost(h, 443)
	if !ok {
		t.Fatal("no condition found")
	}
	if best.Port != 80 {
		t.Errorf("best anchor port = %d; want 80", best.Port)
	}
	if p != 3.0/5 {
		t.Errorf("best P = %f; want 0.6", p)
	}
	// Predicting 80 from 443 yields probability 1.
	_, p80, _ := m.BestCondForHost(h, 80)
	if p80 != 1 {
		t.Errorf("P(80 | 443-cond) = %f; want 1", p80)
	}
}

func TestCondsOfFamiliesAndCounts(t *testing.T) {
	r := dataset.Record{
		IP: asndb.MustParseIP("10.0.0.1"), Port: 80, ASN: 7,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "http"},
			features.Value{Key: features.KeyHTTPServer, Val: "x"}),
	}
	nets := NetFeatures(r, DefaultNetKeys())
	conds := CondsOf(r, AllFamilies, nil, nets)
	// 1 (T) + 2 (TA) + 2 (TN) + 4 (TAN) = 9.
	if len(conds) != 9 {
		t.Fatalf("CondsOf produced %d conditions; want 9", len(conds))
	}
	counts := map[Family]int{}
	for _, c := range conds {
		counts[c.Family()]++
		if c.Port != 80 {
			t.Error("condition port wrong")
		}
	}
	if counts[FamilyT] != 1 || counts[FamilyTA] != 2 || counts[FamilyTN] != 2 || counts[FamilyTAN] != 4 {
		t.Errorf("family counts = %v", counts)
	}
}

func TestNetFeaturesCandidates(t *testing.T) {
	r := dataset.Record{IP: asndb.MustParseIP("10.1.2.3"), ASN: 9}
	vals := NetFeatures(r, features.CandidateNetworkKeys())
	if len(vals) != 9 {
		t.Fatalf("candidate net features = %d; want 9 (ASN + /16../23)", len(vals))
	}
	for _, v := range vals {
		if bits, ok := v.Key.SubnetBits(); ok {
			want := asndb.SubnetOf(r.IP, bits).String()
			if v.Val != want {
				t.Errorf("%v = %q; want %q", v.Key, v.Val, want)
			}
		} else if v.Key == features.KeyASN && v.Val != "AS9" {
			t.Errorf("ASN value %q", v.Val)
		}
	}
}

func TestCondStringAndKind(t *testing.T) {
	c := Cond{Port: 80, AppKey: features.KeyHTTPServer, AppVal: "x",
		NetKey: features.KeyASN, NetVal: "AS1"}
	if c.Family() != FamilyTAN {
		t.Error("family detection wrong")
	}
	if c.Kind() != (TupleKind{AppKey: features.KeyHTTPServer, NetKey: features.KeyASN}) {
		t.Error("Kind wrong")
	}
	if (Cond{Port: 80}).String() != "(80)" {
		t.Errorf("T cond string: %q", Cond{Port: 80}.String())
	}
	if (TupleKind{}).String() != "Port" {
		t.Errorf("plain kind string: %q", TupleKind{}.String())
	}
}

func TestFamilySetOps(t *testing.T) {
	s := FamilySet(0).With(FamilyT).With(FamilyTAN)
	if !s.Has(FamilyT) || !s.Has(FamilyTAN) || s.Has(FamilyTA) || s.Has(FamilyTN) {
		t.Error("FamilySet bit ops wrong")
	}
	for _, f := range []Family{FamilyT, FamilyTA, FamilyTN, FamilyTAN} {
		if !AllFamilies.Has(f) {
			t.Errorf("AllFamilies missing %v", f)
		}
	}
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	hosts := handHosts()
	a := Build(Config{Floor: -1, MinSupport: -1, Engine: engineCfg(1)}, hosts)
	b := Build(Config{Floor: -1, MinSupport: -1, Engine: engineCfg(8)}, hosts)
	if a.NumConds() != b.NumConds() || a.NumPairs() != b.NumPairs() {
		t.Fatalf("parallel build differs: %d/%d vs %d/%d",
			a.NumConds(), a.NumPairs(), b.NumConds(), b.NumPairs())
	}
	probe := []Cond{{Port: 80}, {Port: 443}, {Port: 22}}
	for _, c := range probe {
		for _, port := range []uint16{22, 80, 443, 8080} {
			if a.Prob(c, port) != b.Prob(c, port) {
				t.Errorf("P(%d | %v) differs between worker counts", port, c)
			}
		}
	}
}
