// Package asndb provides IPv4 address arithmetic, CIDR prefixes, and a
// longest-prefix-match routing table mapping prefixes to autonomous system
// numbers. GPS's network-layer features (Table 1) are the IP's /16
// subnetwork and its ASN; both are answered by this package.
package asndb

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order.
type IP uint32

// ParseIP parses dotted-quad notation.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("asndb: invalid IPv4 address %q", s)
	}
	var ip uint32
	for _, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("asndb: invalid IPv4 address %q: %v", s, err)
		}
		ip = ip<<8 | uint32(n)
	}
	return IP(ip), nil
}

// MustParseIP is ParseIP that panics on error; for tests and literals.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String renders the address in dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Octet returns octet i of the address (0 is the most significant).
func (ip IP) Octet(i int) byte {
	if i < 0 || i > 3 {
		panic("asndb: octet index out of range")
	}
	return byte(ip >> (24 - 8*i))
}

// Prefix is a CIDR block: the masked network address plus a prefix length.
type Prefix struct {
	Addr IP    // network address, already masked
	Bits uint8 // prefix length, 0..32
}

// ErrBadPrefix reports an out-of-range prefix length.
var ErrBadPrefix = errors.New("asndb: prefix length out of range")

// NewPrefix masks addr to bits and returns the prefix.
func NewPrefix(addr IP, bits uint8) (Prefix, error) {
	if bits > 32 {
		return Prefix{}, ErrBadPrefix
	}
	return Prefix{Addr: addr & Mask(bits), Bits: bits}, nil
}

// MustPrefix is NewPrefix that panics on error.
func MustPrefix(addr IP, bits uint8) Prefix {
	p, err := NewPrefix(addr, bits)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the netmask for a prefix length.
func Mask(bits uint8) IP {
	if bits == 0 {
		return 0
	}
	return IP(^uint32(0) << (32 - bits))
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool { return ip&Mask(p.Bits) == p.Addr }

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 { return 1 << (32 - p.Bits) }

// First returns the lowest address in the prefix.
func (p Prefix) First() IP { return p.Addr }

// Last returns the highest address in the prefix.
func (p Prefix) Last() IP { return p.Addr | ^Mask(p.Bits) }

// String renders CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }

// SubnetOf returns the enclosing subnet of ip with the given prefix length.
// A step size of /0 covers the entire address space, matching the paper's
// "scanning step size" parameter (§5.3).
func SubnetOf(ip IP, bits uint8) Prefix {
	return Prefix{Addr: ip & Mask(bits), Bits: bits}
}

// Subnet16 returns the /16 subnetwork feature value for an IP, formatted in
// CIDR notation as GPS's network feature (Table 1).
func Subnet16(ip IP) string { return SubnetOf(ip, 16).String() }

// ShardOf maps an address to one of n shards via a 32-bit FNV-1a hash of
// its octets. The assignment is a pure function of (ip, n): stable across
// processes, runs, and churn, so a sharded deployment can checkpoint and
// resume without hosts migrating between shards. n <= 1 always yields 0.
func ShardOf(ip IP, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		fnvOffset = 2166136261
		fnvPrime  = 16777619
	)
	h := uint32(fnvOffset)
	h = (h ^ uint32(byte(ip>>24))) * fnvPrime
	h = (h ^ uint32(byte(ip>>16))) * fnvPrime
	h = (h ^ uint32(byte(ip>>8))) * fnvPrime
	h = (h ^ uint32(byte(ip))) * fnvPrime
	return int(h % uint32(n))
}

// ShardOwns reports whether shard index of an n-way split owns ip. It is
// the single ownership predicate every sharded layer (scanner, pipeline,
// continuous) shares; count <= 1 means unsharded, which owns everything.
func ShardOwns(ip IP, index, count int) bool {
	return count <= 1 || ShardOf(ip, count) == index
}
