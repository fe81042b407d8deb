package lzr

import (
	"testing"

	"gps/internal/asndb"
	"gps/internal/features"
	"gps/internal/netmodel"
)

var statusNames = [...]string{"service", "middlebox", "unresponsive"}

// String names the status in failure messages.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "unknown"
}

// buildSource creates a universe-like source by hand.
type handSource struct {
	hosts map[asndb.IP]*netmodel.Host
}

func (s *handSource) HostAt(ip asndb.IP) (*netmodel.Host, bool) {
	h, ok := s.hosts[ip]
	return h, ok
}

func newHandSource() *handSource {
	s := &handSource{hosts: make(map[asndb.IP]*netmodel.Host)}

	web := netmodel.NewHost(asndb.MustParseIP("10.0.0.1"), 1, "web")
	web.AddService(netmodel.Service{Port: 80, Proto: features.ProtocolHTTP,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "http"})})
	web.AddService(netmodel.Service{Port: 4444, Proto: features.ProtocolSSH,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "ssh"})})
	web.AddService(netmodel.Service{Port: 5555, Proto: features.ProtocolUnknown})
	s.hosts[web.IP] = web

	mb := netmodel.NewHost(asndb.MustParseIP("10.0.0.2"), 1, "middlebox")
	mb.Middlebox = true
	s.hosts[mb.IP] = mb

	pseudo := netmodel.NewHost(asndb.MustParseIP("10.0.0.3"), 1, "pseudo")
	pseudo.SetPseudoBlock(1000, 3000, &netmodel.Service{
		Proto: features.ProtocolHTTP, Pseudo: true,
		Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "http"}),
	})
	s.hosts[pseudo.IP] = pseudo
	return s
}

func TestFingerprintService(t *testing.T) {
	f := New(newHandSource())
	r := f.Fingerprint(asndb.MustParseIP("10.0.0.1"), 80)
	if r.Status != StatusService || r.Proto != features.ProtocolHTTP {
		t.Errorf("got %v/%v", r.Status, r.Proto)
	}
}

func TestFingerprintUnassignedPort(t *testing.T) {
	f := New(newHandSource())
	// SSH on 4444: the protocol is the service's, not the port's.
	r := f.Fingerprint(asndb.MustParseIP("10.0.0.1"), 4444)
	if r.Status != StatusService || r.Proto != features.ProtocolSSH {
		t.Fatalf("got %v/%v", r.Status, r.Proto)
	}
	// A service speaking no known protocol is kept, as unknown.
	r = f.Fingerprint(asndb.MustParseIP("10.0.0.1"), 5555)
	if r.Status != StatusService || r.Proto != features.ProtocolUnknown {
		t.Fatalf("unknown service: %v/%v", r.Status, r.Proto)
	}
}

func TestFingerprintMiddlebox(t *testing.T) {
	f := New(newHandSource())
	r := f.Fingerprint(asndb.MustParseIP("10.0.0.2"), 12345)
	if r.Status != StatusMiddlebox {
		t.Errorf("middlebox fingerprinted as %v", r.Status)
	}
}

// TestFingerprintAllocatesNothing: a fingerprint is a lookup.
func TestFingerprintAllocatesNothing(t *testing.T) {
	f := New(newHandSource())
	ip := asndb.MustParseIP("10.0.0.1")
	if n := testing.AllocsPerRun(100, func() { f.Fingerprint(ip, 80) }); n != 0 {
		t.Errorf("Fingerprint allocates %v objects per call; want 0", n)
	}
}

func TestFingerprintUnresponsive(t *testing.T) {
	f := New(newHandSource())
	if r := f.Fingerprint(asndb.MustParseIP("10.9.9.9"), 80); r.Status != StatusUnresponsive {
		t.Errorf("missing host fingerprinted as %v", r.Status)
	}
	// A real host, but a closed port.
	if r := f.Fingerprint(asndb.MustParseIP("10.0.0.1"), 9999); r.Status != StatusUnresponsive {
		t.Errorf("closed port fingerprinted as %v", r.Status)
	}
}

func TestFingerprintPseudoBlock(t *testing.T) {
	f := New(newHandSource())
	r := f.Fingerprint(asndb.MustParseIP("10.0.0.3"), 2000)
	// LZR sees a real HTTP service — pseudo services complete L7; the
	// dataset-level Appendix B filter is what removes them.
	if r.Status != StatusService {
		t.Errorf("pseudo block port status %v", r.Status)
	}
}

func TestIsPseudoHost(t *testing.T) {
	s := newHandSource()
	web, _ := s.HostAt(asndb.MustParseIP("10.0.0.1"))
	if IsPseudoHost(web) {
		t.Error("3-service host flagged as pseudo")
	}
	pseudo, _ := s.HostAt(asndb.MustParseIP("10.0.0.3"))
	if !IsPseudoHost(pseudo) {
		t.Error("2001-port pseudo block not flagged")
	}
	// Exactly at the threshold: not filtered; one above: filtered.
	h := netmodel.NewHost(1, 1, "t")
	for p := uint16(1); p <= MaxRealServicesPerHost; p++ {
		h.AddService(netmodel.Service{Port: p})
	}
	if IsPseudoHost(h) {
		t.Error("host at threshold filtered")
	}
	h.AddService(netmodel.Service{Port: 9999})
	if !IsPseudoHost(h) {
		t.Error("host above threshold not filtered")
	}
}

func TestStatusString(t *testing.T) {
	if StatusService.String() != "service" || StatusMiddlebox.String() != "middlebox" ||
		StatusUnresponsive.String() != "unresponsive" {
		t.Error("status names wrong")
	}
	if Status(99).String() != "unknown" {
		t.Error("out-of-range status")
	}
}

// TestUniverseFingerprintAccuracy: LZR must report the protocol of every
// explicitly-typed service in a generated universe.
func TestUniverseFingerprintAccuracy(t *testing.T) {
	u := netmodel.Generate(netmodel.TestParams(61))
	f := New(u)
	checked, wrong := 0, 0
	for _, h := range u.Hosts() {
		if h.Middlebox {
			continue
		}
		for _, svc := range h.Services() {
			if svc.Proto == features.ProtocolUnknown {
				continue
			}
			checked++
			r := f.Fingerprint(h.IP, svc.Port)
			if r.Status != StatusService || r.Proto != svc.Proto {
				wrong++
			}
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
	if wrong > 0 {
		t.Errorf("%d of %d services misidentified", wrong, checked)
	}
}
