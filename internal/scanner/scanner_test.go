package scanner

import (
	"testing"
	"time"

	"gps/internal/asndb"
)

// fakeNet is a trivial Responder: a fixed set of (ip, port) services.
type fakeNet map[asndb.IP]map[uint16]bool

func (f fakeNet) Responsive(ip asndb.IP, port uint16) bool { return f[ip][port] }

// fakeNetFast adds the PrefixResponder fast path.
type fakeNetFast struct{ fakeNet }

func (f fakeNetFast) ResponsiveIn(p asndb.Prefix, port uint16) []asndb.IP {
	var out []asndb.IP
	for ip, ports := range f.fakeNet {
		if p.Contains(ip) && ports[port] {
			out = append(out, ip)
		}
	}
	sortIPs(out)
	return out
}

func sortIPs(ips []asndb.IP) {
	for i := 1; i < len(ips); i++ {
		for j := i; j > 0 && ips[j-1] > ips[j]; j-- {
			ips[j-1], ips[j] = ips[j], ips[j-1]
		}
	}
}

func testNet() fakeNet {
	return fakeNet{
		asndb.MustParseIP("10.0.0.1"): {80: true, 22: true},
		asndb.MustParseIP("10.0.0.5"): {80: true},
		asndb.MustParseIP("10.0.1.1"): {443: true},
		asndb.MustParseIP("11.0.0.1"): {80: true},
	}
}

func TestProbeCounting(t *testing.T) {
	s := New(testNet())
	if !s.Probe(asndb.MustParseIP("10.0.0.1"), 80) {
		t.Error("probe to live service failed")
	}
	if s.Probe(asndb.MustParseIP("10.0.0.2"), 80) {
		t.Error("probe to empty address succeeded")
	}
	if s.Probes() != 2 {
		t.Errorf("probes=%d; want 2", s.Probes())
	}
}

func TestScanPrefix(t *testing.T) {
	s := New(testNet())
	p := asndb.MustPrefix(asndb.MustParseIP("10.0.0.0"), 24)
	got := s.ScanPrefix(p, 80, 7)
	if len(got) != 2 {
		t.Fatalf("found %d responders; want 2", len(got))
	}
	if s.Probes() != 256 {
		t.Errorf("probes = %d; want 256 (full /24)", s.Probes())
	}
}

func TestScanPrefixFastEquivalence(t *testing.T) {
	slow := New(testNet())
	fast := New(fakeNetFast{testNet()})
	p := asndb.MustPrefix(asndb.MustParseIP("10.0.0.0"), 23)

	a := slow.ScanPrefix(p, 80, 3)
	b := fast.ScanPrefixFast(p, 80, 3)
	sortIPs(a)
	if len(a) != len(b) {
		t.Fatalf("fast path found %d; slow found %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("result %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if slow.Probes() != fast.Probes() {
		t.Errorf("probe accounting differs: %d vs %d", slow.Probes(), fast.Probes())
	}
}

func TestRateMath(t *testing.T) {
	r := Rate{Gbps: 1}
	pps := r.PPS()
	// 1 Gb/s over 84-byte frames ~ 1.488M pps.
	if pps < 1.4e6 || pps > 1.6e6 {
		t.Errorf("PPS = %f; want ~1.49M", pps)
	}
	d := r.Duration(uint64(pps))
	if d < 990*time.Millisecond || d > 1010*time.Millisecond {
		t.Errorf("Duration(1s of probes) = %v", d)
	}
	if (Rate{}).Duration(1000) != 0 {
		t.Error("zero rate must yield zero duration")
	}
}

func TestShardedPrefixScan(t *testing.T) {
	net := fakeNetFast{testNet()}
	pfx := asndb.MustPrefix(asndb.MustParseIP("10.0.0.0"), 16)
	const n = 4

	full := New(net).ScanPrefixFast(pfx, 80, 1)

	// Each responder must be returned by exactly the shard that owns it,
	// and the per-shard probe accounting must sum to the full prefix.
	var merged []asndb.IP
	var probes uint64
	for i := 0; i < n; i++ {
		sc := NewSharded(net, i, n)
		part := sc.ScanPrefixFast(pfx, 80, 1)
		for _, ip := range part {
			if asndb.ShardOf(ip, n) != i {
				t.Errorf("shard %d returned %v owned by shard %d", i, ip, asndb.ShardOf(ip, n))
			}
		}
		merged = append(merged, part...)
		probes += sc.Probes()
	}
	sortIPs(merged)
	if len(merged) != len(full) {
		t.Fatalf("merged %d responders; unsharded found %d", len(merged), len(full))
	}
	for i := range full {
		if merged[i] != full[i] {
			t.Errorf("merged[%d] = %v; want %v", i, merged[i], full[i])
		}
	}
	if probes != pfx.Size() {
		t.Errorf("shard probe shares sum to %d; want %d", probes, pfx.Size())
	}

	// The slow path (no PrefixResponder) must partition identically.
	var slowMerged []asndb.IP
	for i := 0; i < n; i++ {
		sc := NewSharded(testNet(), i, n)
		slowMerged = append(slowMerged, sc.ScanPrefix(pfx, 80, 1)...)
	}
	sortIPs(slowMerged)
	if len(slowMerged) != len(full) {
		t.Fatalf("slow-path merged %d responders; want %d", len(slowMerged), len(full))
	}

	// count <= 1 must behave exactly like an unsharded scanner.
	if got := NewSharded(net, 0, 1).ScanPrefixFast(pfx, 80, 1); len(got) != len(full) {
		t.Errorf("NewSharded(_, 0, 1) filtered responders: %d != %d", len(got), len(full))
	}
}

func TestNewShardedRejectsBadIndex(t *testing.T) {
	for _, idx := range []int{-1, 4, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSharded(_, %d, 4) did not panic", idx)
				}
			}()
			NewSharded(testNet(), idx, 4)
		}()
	}
}
