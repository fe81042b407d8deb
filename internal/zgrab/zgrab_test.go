package zgrab

import (
	"slices"
	"testing"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
)

type handSource map[asndb.IP]*netmodel.Host

func (s handSource) ServiceAt(ip asndb.IP, port uint16) (*netmodel.Service, bool) {
	h, ok := s[ip]
	if !ok {
		return nil, false
	}
	return h.ServiceAt(port)
}

func TestGrab(t *testing.T) {
	ip := asndb.MustParseIP("10.0.0.1")
	h := netmodel.NewHost(ip, 1, "t")
	h.AddService(netmodel.Service{
		Port: 80, Proto: features.ProtocolHTTP, TTL: 55,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "http"},
			features.Value{Key: features.KeyHTTPServer, Val: "nginx"}),
	})
	g := New(handSource{ip: h})

	grab, ok := g.Grab(ip, 80)
	if !ok {
		t.Fatal("grab failed")
	}
	if grab.Proto != features.ProtocolHTTP || grab.TTL != 55 {
		t.Errorf("grab = %+v", grab)
	}
	if !slices.Contains(grab.Feats, features.Value{Key: features.KeyHTTPServer, Val: "nginx"}) {
		t.Errorf("grabbed features %v; want server nginx", grab.Feats)
	}
	if _, ok := g.Grab(ip, 81); ok {
		t.Error("grab on closed port succeeded")
	}
	if _, ok := g.Grab(asndb.MustParseIP("10.0.0.2"), 80); ok {
		t.Error("grab on missing host succeeded")
	}
}

// TestGrabAllocatesNothing: a grab is a read of the service.
func TestGrabAllocatesNothing(t *testing.T) {
	ip := asndb.MustParseIP("10.0.0.1")
	h := netmodel.NewHost(ip, 1, "t")
	h.AddService(netmodel.Service{Port: 80, Proto: features.ProtocolHTTP,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "http"})})
	g := New(handSource{ip: h})
	if n := testing.AllocsPerRun(100, func() { g.Grab(ip, 80) }); n != 0 {
		t.Errorf("Grab allocates %v objects per call; want 0", n)
	}
}

// TestUniverseGrabRoundTrip pins "one observation path": over a generated
// and twice-churned universe, the record discovery builds from a grab
// (plus the ASN lookup, as pipeline.Run and continuous.fold do) must equal
// the record the seed path (dataset.SnapshotLZR) takes for the same key.
// Seed and discovery agree by construction; a future divergence fails here.
func TestUniverseGrabRoundTrip(t *testing.T) {
	u := netmodel.Generate(netmodel.TestParams(71))
	for step := 0; step <= 2; step++ {
		if step > 0 {
			u = netmodel.Churn(u, netmodel.DefaultChurn(71+int64(step)))
		}
		g := New(u)
		seed := dataset.SnapshotLZR(u, 1, 72)
		if len(seed.Records) == 0 {
			t.Fatal("nothing checked")
		}
		for _, want := range seed.Records {
			grab, ok := g.Grab(want.IP, want.Port)
			if !ok {
				t.Fatalf("step %d: grab failed for %v:%d", step, want.IP, want.Port)
			}
			asn, _ := u.ASNOf(want.IP)
			got := dataset.Record{
				IP: want.IP, Port: want.Port, Proto: grab.Proto,
				Feats: grab.Feats, ASN: asn, TTL: grab.TTL,
			}
			if got.Proto != want.Proto || got.ASN != want.ASN || got.TTL != want.TTL ||
				!slices.Equal(got.Feats, want.Feats) {
				t.Fatalf("step %d %v:%d: discovery records %+v; seed records %+v",
					step, want.IP, want.Port, got, want)
			}
		}
	}
}
