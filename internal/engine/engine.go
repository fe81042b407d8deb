// Package engine is the parallel substrate of the GPS pipeline: the
// stand-in for Google BigQuery (§5.5). The paper's key systems claim is
// that GPS's conditional-probability computation is embarrassingly
// parallel — host counts over (feature value, port) pairs — so a
// serverless warehouse executes it in minutes while a single core needs
// days. Here that shape is a range of seed hosts cut into one contiguous
// chunk per worker: each worker counts its chunk into integers of its own
// and the caller merges the per-chunk results, which come back in chunk
// order so the merge never depends on scheduling. Setting Workers to 1
// gives the paper's single-core comparison point (§6.5, Table 2).
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Config controls execution.
type Config struct {
	// Workers is the parallelism; 0 means GOMAXPROCS.
	Workers int
	// Shards is ignored. It sized the hash shuffle of the map/reduce this
	// package no longer has; the field stays only because
	// cmd/gpsbench/trace.go assigns it, and goes when a benchmark PR
	// drops that assignment.
	Shards int
}

// Resolve returns the effective worker count.
func (c Config) Resolve() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats accumulates work counters, the analogue of BigQuery's "data
// processed / shuffled" accounting in Table 2.
type Stats struct {
	RecordsIn    atomic.Uint64 // input records read
	PairsEmitted atomic.Uint64 // observations counted
}

// chunkSize is the length of every chunk but the last when [0, n) is cut
// for cfg's workers; n must be positive.
func chunkSize(cfg Config, n int) int {
	workers := cfg.Resolve()
	if workers > n {
		workers = n
	}
	return (n + workers - 1) / workers
}

// ParallelFor splits [0, n) into contiguous chunks and runs body on each
// chunk concurrently.
func ParallelFor(cfg Config, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	chunk := chunkSize(cfg, n)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Chunks is ParallelFor for a body that returns a result: the results come
// back ordered by chunk, lowest range first, however the goroutines were
// scheduled. It returns nil when n <= 0.
func Chunks[R any](cfg Config, n int, body func(lo, hi int) R) []R {
	if n <= 0 {
		return nil
	}
	chunk := chunkSize(cfg, n)
	out := make([]R, (n+chunk-1)/chunk)
	ParallelFor(cfg, n, func(lo, hi int) { out[lo/chunk] = body(lo, hi) })
	return out
}
