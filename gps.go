// Package gps implements GPS (Izhikevich, Teixeira, Durumeric — SIGCOMM
// 2022): a predictive Internet-wide scanning system that discovers IPv4
// services across all 65,536 TCP ports using orders of magnitude less
// bandwidth than exhaustive scanning.
//
// GPS runs in four phases (§5):
//
//  1. Seed: collect (or be given) a small uniform random sample of hosts
//     scanned across all ports.
//  2. Model: compute conditional probabilities between every feature value
//     and every port (Expressions 4-7) in one parallel pass.
//  3. Priors scan: find the single most predictive "anchor" service on
//     every responsive host by exhaustively scanning an ordered list of
//     (port, subnet) tuples.
//  4. Prediction scan: map each anchor's features through the
//     most-predictive-feature-values list and probe the predicted
//     (IP, port) pairs in descending probability.
//
// The pipeline orchestrates the substrate packages (scanner, lzr, zgrab,
// probmodel, priors, predict) against a netmodel.Universe, which stands in
// for the live IPv4 Internet. It lives in internal/pipeline; this package
// is its public face — Run, Config, Result, CollectSeed, Evaluate — plus
// the few helpers examples/ and cmd/gps spell (facade.go). The continuous
// subsystem (internal/continuous) runs the same pipeline epoch after
// epoch against an evolving universe, the shard subsystem
// (internal/shard) partitions either mode across N deterministic hash
// shards with a cross-shard merge, and internal/serve answers queries
// over the result; the binaries that drive those import them directly.
package gps

import (
	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
)

// Config parameterizes a GPS run. The zero value is usable: it scans with
// a /16 step size, every feature family, the paper's probability floor,
// and full parallelism.
type Config = pipeline.Config

// Result is everything a GPS run produces.
type Result = pipeline.Result

// CollectSeed gathers a fresh seed set: a uniform random sample of the
// address space scanned across all 65K ports (§5.1). The returned
// dataset's CollectionProbes records the bandwidth this cost.
func CollectSeed(u *netmodel.Universe, fraction float64, seed int64) *dataset.Dataset {
	return pipeline.CollectSeed(u, fraction, seed)
}

// Run executes phases 2-4 of GPS against the universe, training on
// seedSet. The seed set is typically either CollectSeed output or the seed
// half of a dataset split (§6.1).
func Run(u *netmodel.Universe, seedSet *dataset.Dataset, cfg Config) (*Result, error) {
	return pipeline.Run(u, seedSet, cfg)
}
