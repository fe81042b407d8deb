package predict

import (
	"testing"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/engine"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/probmodel"
)

// fleetHosts: hosts with a vendor banner on 222 always also serve 80 and
// 8443; unrelated hosts serve 80 alone.
func fleetHosts() []dataset.HostGroup {
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
	alt := dataset.Record{Port: 8443, Proto: features.ProtocolTLS,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "tls"})}
	ssh := dataset.Record{Port: 222, Proto: features.ProtocolSSH,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "ssh"},
			features.Value{Key: features.KeySSHBanner, Val: "vendor"})}
	tls := dataset.Record{Port: 443, Proto: features.ProtocolTLS,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "tls"})}
	mk("10.0.1.1", web, alt, ssh)
	mk("10.0.1.2", web, alt, ssh)
	mk("10.0.1.3", web, alt, ssh)
	mk("10.0.2.1", web)
	mk("10.0.2.2", web)
	mk("10.0.2.3", web)
	// An 8443 host without 80: P(80 | 8443) = 3/4 < P(80 | 222) = 1, so
	// the vendor port is the strongest anchor for the fleet.
	mk("10.0.3.1", alt, tls)
	return hosts
}

func buildModel(t *testing.T) (*probmodel.Model, []dataset.HostGroup) {
	t.Helper()
	hosts := fleetHosts()
	return probmodel.Build(probmodel.Config{Floor: -1, MinSupport: -1}, hosts), hosts
}

func TestBuildMPFCoversSeedServices(t *testing.T) {
	m, hosts := buildModel(t)
	mpf := BuildMPF(m, hosts, engine.Config{})
	if mpf.Len() == 0 {
		t.Fatal("empty MPF")
	}
	// Every multi-service seed service must be predictable through some
	// rule: check that a rule predicting 8443 via the 222 anchor exists.
	found80, found8443 := false, false
	for _, e := range mpf.Entries() {
		if e.Cond.Port == 222 && e.Port == 8443 && e.P == 1 {
			found8443 = true
		}
		if e.Cond.Port == 222 && e.Port == 80 && e.P == 1 {
			found80 = true
		}
	}
	if !found80 || !found8443 {
		t.Errorf("MPF missing the vendor rules: 80=%v 8443=%v", found80, found8443)
	}
	// Entries are sorted by descending probability.
	es := mpf.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].P < es[i].P {
			t.Fatal("Entries not sorted by probability")
		}
	}
}

func TestPredictFromAnchor(t *testing.T) {
	m, hosts := buildModel(t)
	mpf := BuildMPF(m, hosts, engine.Config{})
	// A fresh host discovered on port 222 with the vendor banner must
	// receive predictions for 80 and 8443.
	anchor := dataset.Record{
		IP: asndb.MustParseIP("10.0.9.9"), Port: 222, ASN: 1,
		Proto: features.ProtocolSSH,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "ssh"},
			features.Value{Key: features.KeySSHBanner, Val: "vendor"}),
	}
	preds := Predict(m, mpf, []dataset.Record{anchor}, nil, engine.Config{})
	want := map[uint16]bool{80: true, 8443: true}
	got := map[uint16]bool{}
	for _, p := range preds {
		if p.IP != anchor.IP {
			t.Errorf("prediction for wrong IP %v", p.IP)
		}
		if p.Port == 222 {
			t.Error("predicted the anchor's own port")
		}
		got[p.Port] = true
	}
	for port := range want {
		if !got[port] {
			t.Errorf("missing prediction for port %d", port)
		}
	}
}

func TestPredictKnownFilter(t *testing.T) {
	m, hosts := buildModel(t)
	mpf := BuildMPF(m, hosts, engine.Config{})
	anchor := dataset.Record{
		IP: asndb.MustParseIP("10.0.9.9"), Port: 222, ASN: 1,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "ssh"},
			features.Value{Key: features.KeySSHBanner, Val: "vendor"}),
	}
	known := func(k netmodel.Key) bool { return k.Port == 80 }
	preds := Predict(m, mpf, []dataset.Record{anchor}, known, engine.Config{})
	for _, p := range preds {
		if p.Port == 80 {
			t.Error("known service predicted again")
		}
	}
}

func TestPredictOrderingAndDedup(t *testing.T) {
	m, hosts := buildModel(t)
	mpf := BuildMPF(m, hosts, engine.Config{})
	// Two anchors on the same host: dedup (IP, port) keeping max P.
	ip := asndb.MustParseIP("10.0.9.9")
	anchors := []dataset.Record{
		{IP: ip, Port: 222, ASN: 1,
			Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "ssh"},
				features.Value{Key: features.KeySSHBanner, Val: "vendor"})},
		{IP: ip, Port: 80, ASN: 1,
			Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "http"})},
	}
	preds := Predict(m, mpf, anchors, nil, engine.Config{})
	seen := map[netmodel.Key]int{}
	for i, p := range preds {
		seen[p.Key()]++
		if i > 0 && preds[i-1].P < p.P {
			t.Fatal("predictions not sorted by descending P")
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("key %v predicted %d times", k, n)
		}
	}
}

func TestPredictParallelMatchesSerial(t *testing.T) {
	m, hosts := buildModel(t)
	mpf := BuildMPF(m, hosts, engine.Config{})
	anchors := []dataset.Record{}
	for _, h := range hosts {
		anchors = append(anchors, h.Records...)
	}
	a := Predict(m, mpf, anchors, nil, engine.Config{Workers: 1})
	b := Predict(m, mpf, anchors, nil, engine.Config{Workers: 8})
	if len(a) != len(b) {
		t.Fatalf("parallel predict differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPredictionKey(t *testing.T) {
	p := Prediction{IP: 9, Port: 80, P: 0.5}
	if p.Key() != (netmodel.Key{IP: 9, Port: 80}) {
		t.Error("Key() wrong")
	}
}

// TestBuildMPFPanicsOnOtherHosts: the list keeps the best conditions the
// model stored for its own seed hosts, so hosts it was not built from are
// a caller's bug, as an MPF list from another model is to Predict.
func TestBuildMPFPanicsOnOtherHosts(t *testing.T) {
	m, hosts := buildModel(t)
	for name, other := range map[string][]dataset.HostGroup{
		"reordered": {hosts[1], hosts[0]},
		"longer":    append(append([]dataset.HostGroup(nil), hosts...), hosts[0]),
		"another":   fleetHosts()[3:],
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: BuildMPF over hosts the model was not built from did not panic", name)
				}
			}()
			BuildMPF(m, other, engine.Config{Workers: 1})
		}()
	}
}
