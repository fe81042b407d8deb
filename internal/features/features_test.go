package features

import (
	"slices"
	"testing"
)

func TestAllKeysCount(t *testing.T) {
	keys := AllKeys()
	if len(keys) != 25 {
		t.Fatalf("AllKeys() = %d keys; Table 1 defines 25", len(keys))
	}
	if NumKeys != 25 {
		t.Fatalf("NumKeys = %d; want 25", NumKeys)
	}
	seen := map[Key]bool{}
	for _, k := range keys {
		if k == KeyNone {
			t.Error("AllKeys lists KeyNone")
		}
		if seen[k] {
			t.Errorf("key %v duplicated", k)
		}
		seen[k] = true
	}
}

func TestExtendedSubnetKeys(t *testing.T) {
	for _, k := range CandidateNetworkKeys() {
		if _, subnet := k.SubnetBits(); !subnet && k != KeyASN {
			t.Errorf("candidate key %v is neither a subnet nor the ASN", k)
		}
	}
	cases := []struct {
		k    Key
		bits uint8
		ok   bool
	}{
		{KeySubnet16, 16, true},
		{KeySubnet17, 17, true},
		{KeySubnet20, 20, true},
		{KeySubnet23, 23, true},
		{KeyASN, 0, false},
		{KeyHTTPServer, 0, false},
	}
	for _, c := range cases {
		bits, ok := c.k.SubnetBits()
		if ok != c.ok || bits != c.bits {
			t.Errorf("SubnetBits(%v) = %d,%v; want %d,%v", c.k, bits, ok, c.bits, c.ok)
		}
	}
}

func TestKeyNames(t *testing.T) {
	if KeyProtocol.String() != "Protocol" {
		t.Errorf("KeyProtocol name %q", KeyProtocol)
	}
	if KeySubnet16.String() != "IP's /16 subnetwork" {
		t.Errorf("KeySubnet16 name %q", KeySubnet16)
	}
	if Key(200).String() == "" {
		t.Error("out-of-range key must render something")
	}
}

// TestNewSetSortsAndKeepsLast: NewSet orders values by key and keeps
// the last value of a repeated key, as map assignment in order would.
func TestNewSetSortsAndKeepsLast(t *testing.T) {
	s := NewSet(Value{Key: KeySSHBanner, Val: "b"}, Value{Key: KeyProtocol, Val: "http"},
		Value{Key: KeyHTTPServer, Val: "n"}, Value{Key: KeyProtocol, Val: "ssh"})
	want := Set{{Key: KeyProtocol, Val: "ssh"}, {Key: KeyHTTPServer, Val: "n"}, {Key: KeySSHBanner, Val: "b"}}
	if !slices.Equal(s, want) {
		t.Fatalf("NewSet = %v; want %v", s, want)
	}
	if NewSet() != nil {
		t.Error("NewSet of nothing is not the empty set")
	}
}

func TestValueString(t *testing.T) {
	v := Value{Key: KeyHTTPServer, Val: "nginx"}
	if v.String() != "HTTP: Server=nginx" {
		t.Errorf("Value.String() = %q", v.String())
	}
}

// TestProtocolRoundTrip: every named protocol has its own name, never
// "unknown", so a protocol column (the dataset CSV's) names the protocol
// it was written from.
func TestProtocolRoundTrip(t *testing.T) {
	if NumProtocols != 15 {
		t.Fatalf("NumProtocols = %d; the paper names 15 banner protocols", NumProtocols)
	}
	seen := map[string]Protocol{ProtocolUnknown.String(): ProtocolUnknown}
	for p := ProtocolHTTP; int(p) <= NumProtocols; p++ {
		if q, dup := seen[p.String()]; dup {
			t.Errorf("protocols %d and %d are both named %q", q, p, p.String())
		}
		seen[p.String()] = p
	}
	if Protocol(99).String() != "unknown" {
		t.Error("out-of-range protocol must be unknown")
	}
}
