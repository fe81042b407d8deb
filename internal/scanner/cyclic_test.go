package scanner

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		2: true, 3: true, 5: true, 7: true, 11: true, 13: true,
		97: true, 65537: true, 4294967311: true,
	}
	composites := []uint64{0, 1, 4, 6, 9, 15, 21, 25, 100, 65536, 4294967296}
	for p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true", c)
		}
	}
}

// TestIsPrimeQuick property: IsPrime agrees with trial division for small n.
func TestIsPrimeQuick(t *testing.T) {
	trial := func(n uint64) bool {
		if n < 2 {
			return false
		}
		for d := uint64(2); d*d <= n; d++ {
			if n%d == 0 {
				return false
			}
		}
		return true
	}
	f := func(raw uint32) bool {
		n := uint64(raw % 100000)
		return IsPrime(n) == trial(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCyclicIteratorFullPermutation(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 10, 100, 1023, 65536} {
		it, err := NewCyclicIterator(n, 42)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := make([]bool, n)
		count := uint64(0)
		for {
			idx, ok := it.Next()
			if !ok {
				break
			}
			if idx >= n {
				t.Fatalf("n=%d: index %d out of range", n, idx)
			}
			if seen[idx] {
				t.Fatalf("n=%d: index %d emitted twice", n, idx)
			}
			seen[idx] = true
			count++
		}
		if count != n {
			t.Errorf("n=%d: emitted %d indexes", n, count)
		}
	}
}

// TestCyclicIteratorQuick property: any (n, seed) pair yields a complete
// permutation of [0, n).
func TestCyclicIteratorQuick(t *testing.T) {
	f := func(rawN uint16, seed int64) bool {
		n := uint64(rawN)%5000 + 1
		it, err := NewCyclicIterator(n, seed)
		if err != nil {
			return false
		}
		seen := make(map[uint64]bool, n)
		for {
			idx, ok := it.Next()
			if !ok {
				break
			}
			if idx >= n || seen[idx] {
				return false
			}
			seen[idx] = true
		}
		return uint64(len(seen)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCyclicIteratorSeedsDiffer(t *testing.T) {
	a, _ := NewCyclicIterator(1000, 1)
	b, _ := NewCyclicIterator(1000, 2)
	same := true
	for i := 0; i < 10; i++ {
		x, _ := a.Next()
		y, _ := b.Next()
		if x != y {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical order")
	}
}

func TestCyclicIteratorErrors(t *testing.T) {
	if _, err := NewCyclicIterator(0, 1); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := NewCyclicIterator(1<<62, 1); err == nil {
		t.Error("oversized space accepted")
	}
}

func TestMulmodPowmod(t *testing.T) {
	// Values chosen to overflow 64-bit multiplication; math/big is the
	// reference.
	const p = 4294967311 // prime > 2^32
	a, b := uint64(4294967290), uint64(4294967280)
	want := new(big.Int).Mul(big.NewInt(int64(a)), big.NewInt(int64(b)))
	want.Mod(want, big.NewInt(p))
	if got := mulmod(a, b, p); got != want.Uint64() {
		t.Errorf("mulmod = %d; want %d", got, want.Uint64())
	}
	if powmod(2, 10, 1000000007) != 1024 {
		t.Error("powmod small case wrong")
	}
	// Fermat: a^(p-1) = 1 mod p for prime p.
	if powmod(12345, p-1, p) != 1 {
		t.Error("powmod violates Fermat's little theorem")
	}
}

// TestMulmodQuick property: mulmod agrees with math/big for random inputs.
func TestMulmodQuick(t *testing.T) {
	f := func(a, b uint64, m32 uint32) bool {
		m := uint64(m32) + 2 // modulus >= 2
		want := new(big.Int).SetUint64(a)
		want.Mul(want, new(big.Int).SetUint64(b))
		want.Mod(want, new(big.Int).SetUint64(m))
		return mulmod(a, b, m) == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
