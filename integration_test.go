package gps_test

// Integration tests spanning the full stack: universe generation, the
// scanner, LZR fingerprinting, the GPS pipeline, persistence, and
// evaluation — the paths a downstream user composes.

import (
	"bytes"
	"slices"
	"testing"

	"gps"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/lzr"
	"gps/internal/netmodel"
	"gps/internal/scanner"
	"gps/internal/zgrab"
)

// TestIntegrationWireDiscovery drives one discovery end to end through
// the three scan layers: the SYN probe acknowledged, the service
// classified by LZR, its features observed by ZGrab — and the features
// must match what the dataset layer records for the same service.
func TestIntegrationWireDiscovery(t *testing.T) {
	u := netmodel.Generate(netmodel.TestParams(201))
	sc := scanner.New(u)
	fp := lzr.New(u)
	gr := zgrab.New(u)

	// Pick a fleet host with a banner-bearing service.
	var target *netmodel.Host
	var port uint16
	for _, h := range u.Hosts() {
		if h.Middlebox {
			continue
		}
		for _, svc := range h.Services() {
			if svc.Proto != features.ProtocolUnknown && len(svc.Feats) > 1 {
				target, port = h, svc.Port
				break
			}
		}
		if target != nil {
			break
		}
	}
	if target == nil {
		t.Fatal("no suitable host")
	}

	if !sc.Probe(target.IP, port) {
		t.Fatal("live service did not acknowledge the probe")
	}
	res := fp.Fingerprint(target.IP, port)
	if res.Status != lzr.StatusService {
		t.Fatalf("LZR status %v", res.Status)
	}
	svc, _ := target.ServiceAt(port)
	if res.Proto != svc.Proto {
		t.Fatalf("LZR identified %v; service is %v", res.Proto, svc.Proto)
	}
	g, ok := gr.Grab(target.IP, port)
	if !ok {
		t.Fatal("grab failed")
	}
	if !slices.Equal(g.Feats, svc.Feats) {
		t.Errorf("grab features %v; service has %v", g.Feats, svc.Feats)
	}
}

// TestIntegrationPersistedPipeline runs GPS on a seed that has been
// round-tripped through a GPSC checkpoint, the one format that keeps
// records, verifying persistence preserves everything training needs.
func TestIntegrationPersistedPipeline(t *testing.T) {
	u := gps.GenerateUniverse(gps.SmallUniverseParams(202))
	full := gps.SnapshotAllPorts(u, 0.4, 203)
	seedSet, testSet := full.Split(0.02, 204)
	eligible := seedSet.EligiblePorts(2)
	seedSet = seedSet.FilterPorts(eligible)
	testSet = testSet.FilterPorts(eligible)

	// Round-trip the seed through the checkpoint format.
	var buf bytes.Buffer
	if err := continuous.WriteCheckpoint(&buf, continuous.SeedState(seedSet, continuous.Config{})); err != nil {
		t.Fatal(err)
	}
	st, err := continuous.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored := &dataset.Dataset{Name: seedSet.Name, SpaceSize: seedSet.SpaceSize,
		SampleFraction: seedSet.SampleFraction, Ports: seedSet.Ports, CollectionProbes: seedSet.CollectionProbes}
	for _, e := range st.Known {
		restored.Records = append(restored.Records, e.Rec)
	}
	if restored.NumServices() != seedSet.NumServices() {
		t.Fatalf("checkpoint kept %d of %d seed services", restored.NumServices(), seedSet.NumServices())
	}

	direct, err := gps.Run(u, seedSet, gps.Config{StepBits: 16, Seed: 205})
	if err != nil {
		t.Fatal(err)
	}
	viaStore, err := gps.Run(u, restored, gps.Config{StepBits: 16, Seed: 205})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Discoveries) != len(viaStore.Discoveries) {
		t.Fatalf("persisted seed changed results: %d vs %d discoveries",
			len(direct.Discoveries), len(viaStore.Discoveries))
	}
	p1, _ := gps.Evaluate(direct, testSet, u.SpaceSize())
	p2, _ := gps.Evaluate(viaStore, testSet, u.SpaceSize())
	if p1.FracAll != p2.FracAll {
		t.Errorf("coverage differs after persistence: %f vs %f", p1.FracAll, p2.FracAll)
	}
}

// TestIntegrationChurnDegradesPredictions verifies the §3 motivation: a
// model trained before churn finds fewer services after it.
func TestIntegrationChurnDegradesPredictions(t *testing.T) {
	u := gps.GenerateUniverse(gps.SmallUniverseParams(206))
	full := gps.SnapshotAllPorts(u, 0.4, 207)
	seedSet, testSet := full.Split(0.02, 208)
	eligible := seedSet.EligiblePorts(2)
	seedSet = seedSet.FilterPorts(eligible)
	testSet = testSet.FilterPorts(eligible)

	fresh, err := gps.Run(u, seedSet, gps.Config{StepBits: 16, Seed: 209})
	if err != nil {
		t.Fatal(err)
	}
	churned := netmodel.Churn(u, netmodel.DefaultChurn(210))
	stale, err := gps.Run(churned, seedSet, gps.Config{StepBits: 16, Seed: 209})
	if err != nil {
		t.Fatal(err)
	}
	pFresh, _ := gps.Evaluate(fresh, testSet, u.SpaceSize())
	pStale, _ := gps.Evaluate(stale, testSet, u.SpaceSize())
	if pStale.FracAll >= pFresh.FracAll {
		t.Errorf("stale scan coverage %.3f not below fresh %.3f; churn should cost coverage",
			pStale.FracAll, pFresh.FracAll)
	}
}

// TestIntegrationDatasetConsistency cross-checks the dataset layer against
// the universe: every record corresponds to a live, fingerprintable
// service with identical features.
func TestIntegrationDatasetConsistency(t *testing.T) {
	u := netmodel.Generate(netmodel.TestParams(212))
	d := dataset.SnapshotLZR(u, 0.3, 213)
	fp := lzr.New(u)
	for i, r := range d.Records {
		if i >= 500 {
			break
		}
		if !u.Responsive(r.IP, r.Port) {
			t.Fatalf("record %v:%d not responsive", r.IP, r.Port)
		}
		res := fp.Fingerprint(r.IP, r.Port)
		if res.Status != lzr.StatusService {
			t.Fatalf("record %v:%d fingerprints as %v", r.IP, r.Port, res.Status)
		}
		if res.Proto != r.Proto {
			t.Fatalf("record %v:%d protocol mismatch: %v vs %v", r.IP, r.Port, res.Proto, r.Proto)
		}
		if asn, _ := u.ASNOf(r.IP); asn != r.ASN {
			t.Fatalf("record %v ASN mismatch", r.IP)
		}
	}
}
