package lzr

import (
	"testing"

	"gps/internal/features"
	"gps/internal/netmodel"
)

// TestBannerIdentifyRoundTrip: for every protocol, the banner the service
// emits must be identified back as that protocol — LZR's core competence.
func TestBannerIdentifyRoundTrip(t *testing.T) {
	for p := features.ProtocolHTTP; int(p) <= features.NumProtocols; p++ {
		svc := &netmodel.Service{Port: 12345, Proto: p, Feats: features.Set{}}
		banner := Banner(svc)
		if len(banner) == 0 {
			t.Errorf("%v: empty banner", p)
			continue
		}
		got, ok := identify(banner)
		if !ok || got != p {
			t.Errorf("identify(Banner(%v)) = %v, %v", p, got, ok)
		}
	}
}

// TestBannerCarriesFeatures: banners embed the identifying feature values
// so ZGrab-level extraction is consistent with what LZR saw.
func TestBannerCarriesFeatures(t *testing.T) {
	cases := []struct {
		proto features.Protocol
		key   features.Key
		val   string
	}{
		{features.ProtocolSSH, features.KeySSHBanner, "SSH-2.0-TestBanner"},
		{features.ProtocolHTTP, features.KeyHTTPServer, "test-httpd/1.0"},
		{features.ProtocolFTP, features.KeyFTPBanner, "220 test ftp"},
		{features.ProtocolVNC, features.KeyVNCDesktopName, "test-desktop"},
		{features.ProtocolMemcached, features.KeyMemcachedVersion, "9.9.9"},
	}
	for _, c := range cases {
		svc := &netmodel.Service{Proto: c.proto, Feats: features.Set{c.key: c.val}}
		banner := string(Banner(svc))
		if !contains(banner, c.val) {
			t.Errorf("%v banner %q missing feature value %q", c.proto, banner, c.val)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestIdentifyAmbiguity: CWMP responses are HTTP-framed but must not be
// misidentified as plain HTTP, and SMTP/FTP both use 220 greetings but
// must separate.
func TestIdentifyAmbiguity(t *testing.T) {
	cwmp := &netmodel.Service{Proto: features.ProtocolCWMP, Feats: features.Set{}}
	if p, _ := identify(Banner(cwmp)); p != features.ProtocolCWMP {
		t.Errorf("CWMP identified as %v", p)
	}
	smtp := &netmodel.Service{Proto: features.ProtocolSMTP,
		Feats: features.Set{features.KeySMTPBanner: "220 mail ESMTP Postfix"}}
	if p, _ := identify(Banner(smtp)); p != features.ProtocolSMTP {
		t.Errorf("SMTP identified as %v", p)
	}
	ftp := &netmodel.Service{Proto: features.ProtocolFTP,
		Feats: features.Set{features.KeyFTPBanner: "220 ProFTPD ready"}}
	if p, _ := identify(Banner(ftp)); p != features.ProtocolFTP {
		t.Errorf("FTP identified as %v", p)
	}
}

func TestIdentifyGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {}, []byte("garbage"), {0x00}, []byte("999 nope")} {
		if p, ok := identify(b); ok {
			t.Errorf("garbage %q identified as %v", b, p)
		}
	}
}

// TestRespondToCrossProtocol: services ignore foreign triggers except HTTP
// servers, which answer any text with an error page.
func TestRespondToCrossProtocol(t *testing.T) {
	tlsSvc := &netmodel.Service{Proto: features.ProtocolTLS, Feats: features.Set{}}
	httpTrigger := clientTriggers[0]
	if resp := respondTo(tlsSvc, httpTrigger); resp != nil {
		t.Errorf("TLS service answered an HTTP trigger with %q", resp)
	}
	httpSvc := &netmodel.Service{Proto: features.ProtocolHTTP, Feats: features.Set{}}
	var memcTrigger trigger
	for _, tr := range clientTriggers {
		if tr.proto == features.ProtocolMemcached {
			memcTrigger = tr
		}
	}
	if resp := respondTo(httpSvc, memcTrigger); len(resp) == 0 {
		t.Error("HTTP service silent on a text trigger; real servers answer 400")
	}
}

// TestUniverseFingerprintAccuracy: LZR must identify the protocol of every
// explicitly-typed service in a generated universe.
func TestUniverseFingerprintAccuracy(t *testing.T) {
	u := netmodel.Generate(netmodel.TestParams(61))
	f := New(u)
	checked, wrong := 0, 0
	for _, h := range u.Hosts() {
		if h.Middlebox {
			continue
		}
		for port, svc := range h.Services() {
			if svc.Proto == features.ProtocolUnknown {
				continue
			}
			checked++
			r := f.Fingerprint(h.IP, port)
			if r.Status != StatusService || r.Proto != svc.Proto {
				wrong++
			}
		}
		if checked > 3000 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
	if wrong > 0 {
		t.Errorf("%d of %d services misidentified", wrong, checked)
	}
}
