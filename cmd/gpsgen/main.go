// Command gpsgen generates a synthetic IPv4 universe and describes it:
// host and service counts, the autonomous system layout, port population,
// and (optionally) service churn over the paper's 10-day window. Useful
// for inspecting the ground-truth substrate before running experiments.
//
// Usage:
//
//	gpsgen [-seed N] [-prefixes N] [-density F] [-vendors N] [-top N] [-churn]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/stats"
)

func main() {
	var (
		seed     = flag.Int64("seed", 42, "generator seed")
		prefixes = flag.Int("prefixes", 16, "announced /16 blocks")
		density  = flag.Float64("density", 0.03, "host density")
		vendors  = flag.Int("vendors", 120, "generated vendor fleets")
		top      = flag.Int("top", 20, "top ports to list")
		churn    = flag.Bool("churn", false, "also simulate 10-day churn")
	)
	flag.Parse()

	p := netmodel.DefaultParams(*seed)
	p.NumPrefix16 = *prefixes
	p.NumASes = max(4, *prefixes/2)
	p.HostDensity = *density
	p.NumVendorModels = *vendors
	u, err := netmodel.GenerateChecked(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpsgen: invalid universe flags:", err)
		os.Exit(2)
	}

	fmt.Printf("universe seed=%d\n", u.Seed())
	fmt.Printf("  address space: %d addresses across %d /16 blocks\n", u.SpaceSize(), len(u.Prefixes()))
	fmt.Printf("  hosts:         %d (%.2f%% density)\n", u.NumHosts(),
		100*float64(u.NumHosts())/float64(u.SpaceSize()))
	fmt.Printf("  services:      %d (including pseudo blocks)\n", u.NumServices())

	fmt.Printf("\nautonomous systems:\n")
	for _, as := range u.ASes() {
		fmt.Printf("  %-8s %-12s %2d /16s\n", as.Num, as.Type, len(as.Prefixes))
	}

	pop := u.PortPopulation()
	type pc struct {
		port  int
		count int
	}
	var ports []pc
	openPorts := 0
	for port, c := range pop {
		if c > 0 {
			openPorts++
			ports = append(ports, pc{port, c})
		}
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i].count > ports[j].count })
	fmt.Printf("\nport population: %d distinct open ports\n", openPorts)
	n := min(*top, len(ports))
	for i := 0; i < n; i++ {
		fmt.Printf("  %5d: %d hosts\n", ports[i].port, ports[i].count)
	}

	fit := stats.FitZipf(pop)
	subnetCounts := make(map[uint32]float64)
	for _, h := range u.Hosts() {
		subnetCounts[uint32(h.IP)&0xfffff000]++ // per /20 pool
	}
	var subnetVals []float64
	for _, v := range subnetCounts {
		subnetVals = append(subnetVals, v)
	}
	fmt.Printf("\nstructure (the properties GPS exploits, per §4):\n")
	fmt.Printf("  port popularity: Zipf alpha %.2f (R2 %.2f), top-10 ports hold %.1f%% of services\n",
		fit.Alpha, fit.R2, 100*stats.TopShare(pop, 10))
	fmt.Printf("  subnet concentration: Gini %.2f across %d occupied /20 pools\n",
		stats.Gini(subnetVals), len(subnetVals))

	full := dataset.SnapshotCensys(u, 2000)
	fmt.Printf("\nfiltered (real-service) snapshot: %d services on %d ports\n",
		full.NumServices(), len(full.Ports))

	if *churn {
		after := netmodel.Churn(u, netmodel.DefaultChurn(*seed^0x10))
		lost := 0
		for _, h := range u.Hosts() {
			for _, svc := range h.Services() {
				if !after.Responsive(h.IP, svc.Port) {
					lost++
				}
			}
		}
		fmt.Printf("\nafter 10-day churn: %d hosts remain, %d services lost\n",
			after.NumHosts(), lost)
	}
}
