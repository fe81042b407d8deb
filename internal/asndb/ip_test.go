package asndb

import (
	"testing"
	"testing/quick"
)

func TestParseIPRoundTrip(t *testing.T) {
	cases := []struct {
		s  string
		ip IP
	}{
		{"0.0.0.0", 0},
		{"255.255.255.255", 0xffffffff},
		{"1.2.3.4", 0x01020304},
		{"192.168.0.1", 0xc0a80001},
	}
	for _, c := range cases {
		got, err := ParseIP(c.s)
		if err != nil {
			t.Fatalf("ParseIP(%q): %v", c.s, err)
		}
		if got != c.ip {
			t.Errorf("ParseIP(%q) = %v; want %v", c.s, uint32(got), uint32(c.ip))
		}
		if got.String() != c.s {
			t.Errorf("String() = %q; want %q", got.String(), c.s)
		}
	}
}

func TestParseIPErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1.2.3.-1"} {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) succeeded; want error", s)
		}
	}
}

// TestIPStringParseQuick property: String/Parse round-trips for any IP.
func TestIPStringParseQuick(t *testing.T) {
	f := func(raw uint32) bool {
		ip := IP(raw)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOctet(t *testing.T) {
	ip := MustParseIP("10.20.30.40")
	for i, want := range []byte{10, 20, 30, 40} {
		if got := ip.Octet(i); got != want {
			t.Errorf("Octet(%d) = %d; want %d", i, got, want)
		}
	}
}

func TestOctetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Octet(4) did not panic")
		}
	}()
	MustParseIP("1.2.3.4").Octet(4)
}

func TestPrefixBasics(t *testing.T) {
	p := MustPrefix(MustParseIP("10.1.2.3"), 16)
	if p.Addr != MustParseIP("10.1.0.0") {
		t.Errorf("prefix addr not masked: %v", p.Addr)
	}
	if p.Size() != 65536 {
		t.Errorf("Size() = %d; want 65536", p.Size())
	}
	if !p.Contains(MustParseIP("10.1.255.255")) {
		t.Error("Contains failed for last address")
	}
	if p.Contains(MustParseIP("10.2.0.0")) {
		t.Error("Contains succeeded outside prefix")
	}
	if p.First() != MustParseIP("10.1.0.0") || p.Last() != MustParseIP("10.1.255.255") {
		t.Errorf("First/Last wrong: %v %v", p.First(), p.Last())
	}
	if p.String() != "10.1.0.0/16" {
		t.Errorf("String() = %q", p.String())
	}
}

func TestPrefixEdgeCases(t *testing.T) {
	whole := MustPrefix(0, 0)
	if whole.Size() != 1<<32 {
		t.Errorf("/0 size = %d", whole.Size())
	}
	if !whole.Contains(MustParseIP("255.255.255.255")) {
		t.Error("/0 must contain everything")
	}
	host := MustPrefix(MustParseIP("1.2.3.4"), 32)
	if host.Size() != 1 || !host.Contains(MustParseIP("1.2.3.4")) || host.Contains(MustParseIP("1.2.3.5")) {
		t.Error("/32 semantics wrong")
	}
	if _, err := NewPrefix(0, 33); err == nil {
		t.Error("prefix length 33 accepted")
	}
}

// TestSubnetOfQuick property: an IP is always inside its own subnet, and
// the subnet of any IP in that subnet is the same subnet.
func TestSubnetOfQuick(t *testing.T) {
	f := func(raw uint32, bits8 uint8) bool {
		bits := bits8 % 33
		ip := IP(raw)
		sub := SubnetOf(ip, bits)
		if !sub.Contains(ip) {
			return false
		}
		return SubnetOf(sub.First(), bits) == sub && SubnetOf(sub.Last(), bits) == sub
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubnet16(t *testing.T) {
	if got := Subnet16(MustParseIP("10.20.30.40")); got != "10.20.0.0/16" {
		t.Errorf("Subnet16 = %q", got)
	}
}

func TestMask(t *testing.T) {
	if Mask(0) != 0 {
		t.Error("Mask(0) != 0")
	}
	if Mask(32) != 0xffffffff {
		t.Error("Mask(32) wrong")
	}
	if Mask(24) != 0xffffff00 {
		t.Error("Mask(24) wrong")
	}
}

func TestShardOf(t *testing.T) {
	if got := ShardOf(MustParseIP("10.20.30.40"), 0); got != 0 {
		t.Errorf("ShardOf(_, 0) = %d; want 0", got)
	}
	if got := ShardOf(MustParseIP("10.20.30.40"), 1); got != 0 {
		t.Errorf("ShardOf(_, 1) = %d; want 0", got)
	}
	// Pin the hash so checkpoints written by one build resume under
	// another: these values are part of the sharded checkpoint contract.
	pinned := []struct {
		ip   string
		n    int
		want int
	}{
		{"10.20.30.40", 4, 1},
		{"0.0.0.0", 8, 5},
		{"203.0.113.77", 16, 0},
	}
	for _, p := range pinned {
		if got := ShardOf(MustParseIP(p.ip), p.n); got != p.want {
			t.Errorf("ShardOf(%s, %d) = %d; pinned value %d", p.ip, p.n, got, p.want)
		}
	}
	// Every shard index is in range, and the split of a /16 is roughly
	// even: no shard owns more than twice its fair share.
	const n = 8
	var counts [n]int
	base := MustParseIP("192.168.0.0")
	for i := 0; i < 1<<16; i++ {
		s := ShardOf(base+IP(i), n)
		if s < 0 || s >= n {
			t.Fatalf("ShardOf out of range: %d", s)
		}
		counts[s]++
	}
	fair := (1 << 16) / n
	for s, c := range counts {
		if c > 2*fair || c < fair/2 {
			t.Errorf("shard %d owns %d of 65536 addresses; want near %d", s, c, fair)
		}
	}
}
