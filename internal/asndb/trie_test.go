package asndb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTableLookupBasics(t *testing.T) {
	var tb Table
	if _, ok := tb.Lookup(MustParseIP("1.2.3.4")); ok {
		t.Error("empty table matched")
	}
	tb.Insert(MustPrefix(MustParseIP("10.0.0.0"), 8), 100)
	tb.Insert(MustPrefix(MustParseIP("10.1.0.0"), 16), 200)
	tb.Insert(MustPrefix(MustParseIP("10.1.2.0"), 24), 300)

	cases := []struct {
		ip   string
		asn  ASN
		want bool
	}{
		{"10.1.2.3", 300, true}, // longest match /24
		{"10.1.9.9", 200, true}, // /16
		{"10.9.9.9", 100, true}, // /8
		{"11.0.0.1", 0, false},  // no match
		{"10.1.2.255", 300, true},
	}
	for _, c := range cases {
		asn, ok := tb.Lookup(MustParseIP(c.ip))
		if ok != c.want || (ok && asn != c.asn) {
			t.Errorf("Lookup(%s) = %v,%v; want %v,%v", c.ip, asn, ok, c.asn, c.want)
		}
	}
}

func TestTableDefaultRoute(t *testing.T) {
	var tb Table
	tb.Insert(MustPrefix(0, 0), 1)
	asn, ok := tb.Lookup(MustParseIP("200.1.2.3"))
	if !ok || asn != 1 {
		t.Error("default route not matched")
	}
}

func TestTableOverwrite(t *testing.T) {
	var tb Table
	p := MustPrefix(MustParseIP("10.0.0.0"), 8)
	tb.Insert(p, 1)
	tb.Insert(p, 2)
	if asn, _ := tb.Lookup(MustParseIP("10.1.1.1")); asn != 2 {
		t.Errorf("overwrite lost: got %v", asn)
	}
}

// route is one reference table entry.
type route struct {
	Prefix Prefix
	ASN    ASN
}

// lookupNaive is the reference longest-prefix-match implementation.
func lookupNaive(routes []route, ip IP) (ASN, bool) {
	bestBits := -1
	var best ASN
	for _, r := range routes {
		if r.Prefix.Contains(ip) && int(r.Prefix.Bits) > bestBits {
			bestBits = int(r.Prefix.Bits)
			best = r.ASN
		}
	}
	return best, bestBits >= 0
}

// TestTableLookupQuick property: trie lookup equals a naive linear scan
// for random tables and random addresses.
func TestTableLookupQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tb Table
		var routes []route
		n := 1 + r.Intn(30)
		for i := 0; i < n; i++ {
			bits := uint8(r.Intn(25))
			pfx := MustPrefix(IP(r.Uint32()), bits)
			asn := ASN(r.Intn(1000))
			// Overwrite semantics: keep only the last insert per prefix
			// in the reference too.
			replaced := false
			for j := range routes {
				if routes[j].Prefix == pfx {
					routes[j].ASN = asn
					replaced = true
					break
				}
			}
			if !replaced {
				routes = append(routes, route{pfx, asn})
			}
			tb.Insert(pfx, asn)
		}
		for i := 0; i < 50; i++ {
			ip := IP(rng.Uint32())
			wantASN, wantOK := lookupNaive(routes, ip)
			gotASN, gotOK := tb.Lookup(ip)
			if gotOK != wantOK || (gotOK && gotASN != wantASN) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
