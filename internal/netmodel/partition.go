package netmodel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"gps/internal/asndb"
)

// Partition restricts universe generation to the addresses owned by a
// subset of an n-way hash split of the address space (asndb.ShardOf).
// A partitioned generation materializes hosts only at owned addresses,
// but every host it does materialize is byte-identical to the same host
// in the full generation — the per-entity sub-seed scheme (see subSeed)
// makes each host a pure function of (Params.Seed, its identity), never
// of which other hosts were generated. This is what lets a shard worker
// hold ~1/N of the universe while scanning exactly what the full-world
// run would answer.
//
// A nil Partition (or Count <= 1) owns everything.
type Partition struct {
	// Count is the total shard count of the split.
	Count int
	// Owned lists the owned shard indexes, each in [0, Count).
	Owned []int
}

// Full reports whether the partition owns the whole address space.
func (p *Partition) Full() bool { return p == nil || p.Count <= 1 }

// Owns reports whether the partition owns ip.
func (p *Partition) Owns(ip asndb.IP) bool {
	if p.Full() {
		return true
	}
	return p.Contains(asndb.ShardOf(ip, p.Count))
}

// Contains reports whether the partition owns shard index s. A full
// partition contains every index.
func (p *Partition) Contains(s int) bool {
	if p.Full() {
		return true
	}
	for _, o := range p.Owned {
		if o == s {
			return true
		}
	}
	return false
}

// Validate reports whether the partition is well-formed: a positive
// shard count, at least one owned shard, every index in range, no
// duplicates. nil validates (it means "own everything").
func (p *Partition) Validate() error {
	if p == nil {
		return nil
	}
	if p.Count < 1 {
		return fmt.Errorf("netmodel: partition count %d; want >= 1", p.Count)
	}
	if p.Count == 1 {
		return nil
	}
	if len(p.Owned) == 0 {
		return fmt.Errorf("netmodel: partition of %d shards owns none", p.Count)
	}
	seen := make(map[int]bool, len(p.Owned))
	for _, o := range p.Owned {
		if o < 0 || o >= p.Count {
			return fmt.Errorf("netmodel: partition owns shard %d, out of range [0, %d)", o, p.Count)
		}
		if seen[o] {
			return fmt.Errorf("netmodel: partition owns shard %d twice", o)
		}
		seen[o] = true
	}
	return nil
}

// clone returns a defensive copy with Owned sorted ascending, or nil
// for a full partition.
func (p *Partition) clone() *Partition {
	if p.Full() {
		return nil
	}
	owned := make([]int, len(p.Owned))
	copy(owned, p.Owned)
	sort.Ints(owned)
	return &Partition{Count: p.Count, Owned: owned}
}

// subSeed derives an independent 64-bit seed for one generation entity
// from the universe seed, a domain label, and the entity's identity, via
// FNV-64a. Every random decision the generator and churn make draws from
// an rng seeded this way, so generating (or churning) any subset of the
// universe consumes exactly the same draws per entity as the full run —
// the determinism contract behind Partition.
func subSeed(seed int64, domain string, ids ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(domain))
	for _, id := range ids {
		binary.LittleEndian.PutUint64(b[:], id)
		h.Write(b[:])
	}
	return h.Sum64()
}

// rng is a small, fast deterministic generator (splitmix64) used for all
// universe generation and churn draws. math/rand's source costs ~5 KB
// and a long warm-up per seeding; per-entity sub-seeding creates one rng
// per host, so seeding must be a single hash.
type rng struct{ s uint64 }

func newRNG(seed int64, domain string, ids ...uint64) *rng {
	return &rng{s: subSeed(seed, domain, ids...)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n) via 32-bit multiply-shift; the
// bias (~n/2^32) is far below anything the universe statistics resolve.
func (r *rng) Intn(n int) int {
	if n <= 0 {
		panic("netmodel: rng.Intn on non-positive n")
	}
	return int((uint64(uint32(r.next()>>32)) * uint64(n)) >> 32)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *rng) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Perm returns a pseudorandom permutation of [0, n).
func (r *rng) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudorandomizes element order via Fisher-Yates.
func (r *rng) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
