// Command gps runs the full GPS pipeline against a generated synthetic
// Internet and reports coverage, bandwidth, and precision against a
// held-out ground truth — a one-command demonstration of the paper's
// headline result.
//
// Usage:
//
//	gps [-seed N] [-prefixes N] [-density F] [-seed-fraction F]
//	    [-step BITS] [-budget N] [-workers N] [-dataset censys|allports]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gps"
	"gps/internal/netmodel"
)

func main() {
	var (
		seed     = flag.Int64("seed", 42, "generator seed")
		prefixes = flag.Int("prefixes", 16, "announced /16 blocks in the universe")
		density  = flag.Float64("density", 0.03, "fraction of addresses hosting services")
		seedFrac = flag.Float64("seed-fraction", 0.02, "seed sample size as a fraction of the address space")
		step     = flag.Uint("step", 16, "scanning step size in prefix bits (0 = whole space)")
		budget   = flag.Uint64("budget", 0, "probe budget for the scans (0 = unlimited)")
		workers  = flag.Int("workers", 0, "compute parallelism (0 = all cores)")
		dsName   = flag.String("dataset", "allports", "ground truth style: censys | allports")
	)
	flag.Parse()

	params := gps.DemoUniverseParams(*seed, *prefixes, *density)

	fmt.Printf("generating universe (seed=%d, %d /16s, density %.1f%%)...\n",
		*seed, *prefixes, 100**density)
	start := time.Now()
	u, err := gps.NewUniverse(params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gps: invalid universe flags:", err)
		os.Exit(2)
	}
	fmt.Printf("  %d hosts, %d services, %d addresses (%.0fms)\n",
		u.NumHosts(), u.NumServices(), u.SpaceSize(),
		float64(time.Since(start).Microseconds())/1000)

	var full *gps.Dataset
	filterPorts := false
	switch *dsName {
	case "censys":
		full = gps.SnapshotCensys(u, 2000)
	case "allports":
		full = gps.SnapshotAllPorts(u, min(1, *seedFrac*10), *seed^0x77)
		filterPorts = true
	default:
		fmt.Fprintf(os.Stderr, "unknown -dataset %q\n", *dsName)
		os.Exit(2)
	}
	seedSet, testSet := full.Split(*seedFrac, *seed^0x99)
	if filterPorts {
		eligible := seedSet.EligiblePorts(2)
		seedSet = seedSet.FilterPorts(eligible)
		testSet = testSet.FilterPorts(eligible)
	}
	fmt.Printf("seed set: %d services on %d hosts; test set: %d services\n",
		seedSet.NumServices(), len(seedSet.IPs()), testSet.NumServices())

	cfg := gps.Config{
		StepBits: uint8(*step),
		StepZero: *step == 0,
		Workers:  *workers,
		Budget:   *budget,
		Seed:     *seed,
	}
	res, err := gps.Run(u, seedSet, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gps:", err)
		os.Exit(1)
	}

	fmt.Printf("\npipeline:\n")
	fmt.Printf("  model:        %d conditions, %d pairs (%v)\n",
		res.Model.NumConds(), res.Model.NumPairs(), res.Timings.Model.Round(time.Millisecond))
	fmt.Printf("  priors list:  %d (port, subnet) targets (%v)\n",
		len(res.PriorsList.Targets), res.Timings.PriorsList.Round(time.Millisecond))
	fmt.Printf("  priors scan:  %d anchors found, %d middleboxes filtered, %d probes\n",
		len(res.Anchors), res.Middleboxes, res.PriorsProbes)
	fmt.Printf("  predictions:  %d computed (%v), %d probes spent\n",
		len(res.Predictions), res.Timings.Predictions.Round(time.Millisecond), res.PredictProbes)

	point, _ := gps.Evaluate(res, testSet, u.SpaceSize())
	exhaustiveProbes := u.SpaceSize() * netmodel.NumPorts
	if full.Ports != nil {
		exhaustiveProbes = u.SpaceSize() * uint64(len(full.Ports))
	}
	fmt.Printf("\nresults vs held-out ground truth:\n")
	fmt.Printf("  services found:       %d / %d (%.1f%%)\n",
		point.Found, gps.NewGroundTruth(testSet).Total(), 100*point.FracAll)
	fmt.Printf("  normalized coverage:  %.1f%%\n", 100*point.FracNorm)
	fmt.Printf("  precision:            %.4f services/probe\n", point.Precision)
	fmt.Printf("  bandwidth:            %.2f 100%%-scan units (%.0fx less than exhaustive)\n",
		point.ScansUnits, float64(exhaustiveProbes)/float64(max(res.TotalScanProbes(), 1)))
	rate := gps.Rate{Gbps: 1}
	fmt.Printf("  est. scan wall-time:  %v at 1 Gb/s\n", rate.Duration(res.TotalScanProbes()).Round(time.Second))
}
