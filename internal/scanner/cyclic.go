// Package scanner simulates the probe layer of the GPS pipeline: a
// ZMap-style stateless SYN scanner (§5.5) that visits addresses in a
// pseudorandom permutation, counts every probe, and converts probe counts
// into the paper's bandwidth ("# of 100% scans") and wall-time units.
package scanner

import (
	"fmt"
	"math/bits"
)

// mulmod computes (a*b) mod m without overflow for m < 2^63.
func mulmod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// powmod computes a^e mod m.
func powmod(a, e, m uint64) uint64 {
	result := uint64(1)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			result = mulmod(result, a, m)
		}
		a = mulmod(a, a, m)
		e >>= 1
	}
	return result
}

// millerRabinBases is sufficient for deterministic primality testing of all
// 64-bit integers.
var millerRabinBases = []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// IsPrime reports whether n is prime (deterministic for uint64).
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
	for _, a := range millerRabinBases {
		x := powmod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 0; i < r-1; i++ {
			x = mulmod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// nextPrime returns the smallest prime >= n.
func nextPrime(n uint64) uint64 {
	if n <= 2 {
		return 2
	}
	if n&1 == 0 {
		n++
	}
	for !IsPrime(n) {
		n += 2
	}
	return n
}

// primeFactors returns the distinct prime factors of n by trial division.
func primeFactors(n uint64) []uint64 {
	var out []uint64
	for _, p := range []uint64{2, 3} {
		if n%p == 0 {
			out = append(out, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	for f := uint64(5); f*f <= n; f += 2 {
		if n%f == 0 {
			out = append(out, f)
			for n%f == 0 {
				n /= f
			}
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}

// findGenerator returns a generator of the multiplicative group mod prime p,
// starting the search at a seed-derived candidate so different scans use
// different permutations (ZMap picks a fresh generator per scan).
func findGenerator(p uint64, seed uint64) uint64 {
	if p <= 3 {
		// Z_2^* = {1} (generator 1); Z_3^* = {1,2} (generator 2).
		return p - 1
	}
	factors := primeFactors(p - 1)
	start := 2 + seed%(p-3)
	for i := uint64(0); i < p; i++ {
		g := start + i
		if g >= p {
			g = 2 + (g - p)
		}
		ok := true
		for _, q := range factors {
			if powmod(g, (p-1)/q, p) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g
		}
	}
	panic("scanner: no generator found") // unreachable for prime p
}

// CyclicIterator walks the index space [0, n) in pseudorandom order by
// iterating the multiplicative cyclic group of a prime p >= n+1, exactly as
// ZMap permutes the IPv4 space. Every index is visited exactly once per
// cycle; state is one integer, so the scanner stays stateless per probe.
type CyclicIterator struct {
	n     uint64 // size of the index space
	p     uint64 // prime modulus > n
	g     uint64 // generator of Z_p^*
	cur   uint64 // current group element
	first uint64 // starting element, to detect cycle completion
	done  bool
}

// NewCyclicIterator creates an iterator over [0, n) seeded by seed.
func NewCyclicIterator(n uint64, seed int64) (*CyclicIterator, error) {
	if n == 0 {
		return nil, fmt.Errorf("scanner: empty index space")
	}
	if n >= 1<<62 {
		return nil, fmt.Errorf("scanner: index space too large: %d", n)
	}
	p := nextPrime(n + 1)
	g := findGenerator(p, uint64(seed))
	// Start at a seed-derived element of the group.
	first := powmod(g, 1+uint64(seed)%(p-1), p)
	return &CyclicIterator{n: n, p: p, g: g, cur: first, first: first}, nil
}

// Next returns the next index in the permutation. ok is false once the full
// cycle has been emitted.
func (it *CyclicIterator) Next() (idx uint64, ok bool) {
	for !it.done {
		v := it.cur
		it.cur = mulmod(it.cur, it.g, it.p)
		if it.cur == it.first {
			it.done = true
		}
		if v-1 < it.n { // group elements are 1..p-1; indexes are 0..n-1
			return v - 1, true
		}
	}
	return 0, false
}
