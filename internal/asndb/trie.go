package asndb

import "fmt"

// ASN is an autonomous system number.
type ASN uint32

// String renders the conventional "AS1234" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Table is a longest-prefix-match routing table mapping prefixes to ASNs.
// It is implemented as a binary (unibit) trie. The zero value is an empty
// table ready for use. Tables are not safe for concurrent mutation, but are
// safe for concurrent lookups once built.
type Table struct {
	root *node
}

type node struct {
	child [2]*node
	asn   ASN
	set   bool
}

// Insert adds a route. Inserting the same prefix twice overwrites the
// previous ASN.
func (t *Table) Insert(p Prefix, asn ASN) {
	if t.root == nil {
		t.root = &node{}
	}
	cur := t.root
	for i := uint8(0); i < p.Bits; i++ {
		b := (uint32(p.Addr) >> (31 - i)) & 1
		if cur.child[b] == nil {
			cur.child[b] = &node{}
		}
		cur = cur.child[b]
	}
	cur.asn = asn
	cur.set = true
}

// Lookup returns the ASN of the longest matching prefix for ip, and whether
// any route matched.
func (t *Table) Lookup(ip IP) (ASN, bool) {
	if t.root == nil {
		return 0, false
	}
	var (
		best   ASN
		found  bool
		cur    = t.root
		addr   = uint32(ip)
		bitpos = 31
	)
	if cur.set {
		best, found = cur.asn, true
	}
	for cur != nil && bitpos >= 0 {
		cur = cur.child[(addr>>bitpos)&1]
		bitpos--
		if cur != nil && cur.set {
			best, found = cur.asn, true
		}
	}
	return best, found
}
