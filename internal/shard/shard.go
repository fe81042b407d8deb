// Package shard partitions the GPS scan universe into N deterministic
// shards and merges their results back into one global view. The paper's
// systems claim (§5.5, Table 2) is that GPS's computation is embarrassingly
// parallel; this package supplies the horizontal analogue of that claim:
// the *scan* itself decomposes over an n-way hash split of the address
// space, because every phase of the pipeline is per-address — the priors
// scan probes addresses independently, and predictions always target the
// anchor's own IP (§5.4). Each shard therefore runs the full pipeline
// against only the addresses it owns, spending ~1/N of the bandwidth,
// and — under an unlimited probe budget — the union of the shards'
// inventories equals the unsharded run exactly. A finite budget weakens
// this to approximate: each shard stops at its own 1/N slice, which cuts
// the scan in different places than the single global ordering would.
//
// The split is a pure hash of the IP (asndb.ShardOf): stable across
// processes and churn, so a checkpoint stores one merged run (Merge) and
// a resume at any shard count re-derives the partitions (Partition).
//
// Two coordinators are provided: Run fans one batch pipeline.Run out over
// N shards (the scale-out analogue of Table 2), and Coordinator drives N
// continuous runners epoch by epoch, each owning one partition of the
// inventory.
package shard

// SliceBudget splits a global probe budget into n per-shard slices that
// sum exactly to the total, with the remainder spread over the low shard
// indexes. A zero total (unlimited) yields unlimited slices. Exception:
// a nonzero total smaller than n is rounded up to one probe per shard —
// summing to n, oversubscribing the stated budget — because a zero slice
// would read as "unlimited" downstream, which is far worse.
func SliceBudget(total uint64, n int) []uint64 {
	if n < 1 {
		n = 1
	}
	out := make([]uint64, n)
	if total == 0 {
		return out
	}
	each := total / uint64(n)
	rem := total % uint64(n)
	for i := range out {
		out[i] = each
		if uint64(i) < rem {
			out[i]++
		}
		if out[i] == 0 {
			// A tiny budget must still be a budget: a zero slice would
			// read as "unlimited" downstream.
			out[i] = 1
		}
	}
	return out
}
