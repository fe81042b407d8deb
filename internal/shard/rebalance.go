package shard

import (
	"fmt"
	"slices"

	"gps/internal/asndb"
	"gps/internal/continuous"
)

// Re-balancing splits a checkpointed shard in two (or rejoins two halves)
// without rescanning anything, by exploiting a property of the hash split:
// ShardOf is h(ip) mod n, so an address owned by shard i under an n-way
// split is owned by either shard i or shard i+n under a 2n-way split
// (h = qn + i, and h mod 2n is i or i+n by the parity of q). Doubling the
// shard count therefore partitions each shard's inventory cleanly into
// two successor shards, and halving it is the exact inverse — no host
// ever migrates to a shard that did not descend from its old owner.

// SplitStates doubles the shard count: state i of an n-way split is
// partitioned into states i (the lower half) and i+n (the upper half) of
// a 2n-way split, by re-hashing each inventory entry under the doubled
// count. Both halves keep the parent's epoch and the run's key order.
// Entries are copied, so mutating the result does not corrupt the input.
//
// An entry that hashes to neither successor is a foreign entry (the input
// was not a hash-split layout) and aborts the split: re-balancing such a
// state would silently strand the host in a partition nothing scans.
func SplitStates(states []*continuous.State) ([]*continuous.State, error) {
	n := len(states)
	if n == 0 {
		return nil, fmt.Errorf("shard: split of zero states")
	}
	out := make([]*continuous.State, 2*n)
	for i, st := range states {
		lo := &continuous.State{Epoch: st.Epoch}
		hi := &continuous.State{Epoch: st.Epoch}
		for _, e := range st.Known {
			switch got := asndb.ShardOf(e.Rec.IP, 2*n); got {
			case i:
				lo.Known = append(lo.Known, e)
			case i + n:
				hi.Known = append(hi.Known, e)
			default:
				return nil, fmt.Errorf(
					"shard: entry %v in shard %d/%d hashes to shard %d under the doubled layout; not a hash-split checkpoint",
					e.Rec.Key(), i, n, got)
			}
		}
		out[i], out[i+n] = lo, hi
	}
	return out, nil
}

// JoinStates halves the shard count, inverting SplitStates: states i and
// i+n/2 of an n-way split merge into state i of an n/2-way split. The
// halves must be at the same epoch, own only addresses that hash to the
// merged shard, and not both claim the same service — violations mean the
// input is not two halves of one hash-split layout. Split followed by join
// reproduces the input byte-for-byte.
func JoinStates(states []*continuous.State) ([]*continuous.State, error) {
	n := len(states)
	if n == 0 || n%2 != 0 {
		return nil, fmt.Errorf("shard: join needs an even shard count, got %d", n)
	}
	h := n / 2
	out := make([]*continuous.State, h)
	for i := 0; i < h; i++ {
		lo, hi := states[i], states[i+h]
		if lo.Epoch != hi.Epoch {
			return nil, fmt.Errorf("shard: joining shards %d (epoch %d) and %d (epoch %d): epochs differ",
				i, lo.Epoch, i+h, hi.Epoch)
		}
		known := append(append(make([]continuous.Entry, 0, len(lo.Known)+len(hi.Known)), lo.Known...), hi.Known...)
		slices.SortFunc(known, func(a, b continuous.Entry) int { return a.Rec.Key().Compare(b.Rec.Key()) })
		for j, e := range known {
			if got := asndb.ShardOf(e.Rec.IP, h); got != i {
				return nil, fmt.Errorf(
					"shard: entry %v in shard %d/%d hashes to shard %d under the halved layout; not a hash-split checkpoint",
					e.Rec.Key(), i, n, got)
			}
			if j > 0 && e.Rec.Key() == known[j-1].Rec.Key() {
				return nil, fmt.Errorf("shard: shards %d and %d both track %v; halves overlap", i, i+h, e.Rec.Key())
			}
		}
		out[i] = &continuous.State{Epoch: lo.Epoch, Known: known}
	}
	return out, nil
}
