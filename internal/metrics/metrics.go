// Package metrics implements the paper's evaluation metrics (§3):
//
//   - Fraction of services (Equation 1): services found over services in
//     ground truth. Biased toward popular ports.
//   - Normalized services (Equation 2): per-port recall averaged over all
//     ports, weighing an uncommon port's services equally with a popular
//     port's.
//   - Precision: ground-truth services found per probe sent (§6.3).
//
// A Tracker consumes an ordered discovery stream annotated with cumulative
// probe counts and produces the coverage-vs-bandwidth curves of Figures
// 2-6.
package metrics

import (
	"sort"

	"gps/internal/dataset"
	"gps/internal/netmodel"
)

// GroundTruth is the reference service set (the held-out test split of a
// 100% or 1% scan, per §6.1).
type GroundTruth struct {
	keys    map[netmodel.Key]bool
	portIPs map[uint16]int
	total   int
}

// NewGroundTruth indexes a dataset as ground truth.
func NewGroundTruth(d *dataset.Dataset) *GroundTruth {
	g := &GroundTruth{
		keys:    make(map[netmodel.Key]bool, len(d.Records)),
		portIPs: make(map[uint16]int),
	}
	for _, r := range d.Records {
		k := r.Key()
		if g.keys[k] {
			continue
		}
		g.keys[k] = true
		g.portIPs[r.Port]++
		g.total++
	}
	return g
}

// Contains reports whether (ip, port) is a ground-truth service.
func (g *GroundTruth) Contains(k netmodel.Key) bool { return g.keys[k] }

// Total returns the number of ground-truth services.
func (g *GroundTruth) Total() int { return g.total }

// NumPorts returns |P|: the number of ports with at least one service.
func (g *GroundTruth) NumPorts() int { return len(g.portIPs) }

// PortCount returns #IP_p: the ground-truth service count on port p.
func (g *GroundTruth) PortCount(p uint16) int { return g.portIPs[p] }

// Point is one sample of the coverage curves: after Probes probes, the
// tracker had found Found ground-truth services.
type Point struct {
	Probes     uint64
	Found      int
	FracAll    float64 // Equation 1
	FracNorm   float64 // Equation 2
	Precision  float64 // Found / Probes
	ScansUnits float64 // Probes expressed in "# of 100% scans"
}

// Tracker accumulates discoveries against a ground truth and samples the
// coverage curves. It is not safe for concurrent use.
type Tracker struct {
	gt        *GroundTruth
	spaceSize uint64
	found     map[netmodel.Key]bool
	foundPort map[uint16]int
	normAcc   float64 // running sum of 1/#IP_p per found service
	points    []Point
	probes    uint64
}

// NewTracker creates a tracker; spaceSize converts probes to 100%-scan
// units.
func NewTracker(gt *GroundTruth, spaceSize uint64) *Tracker {
	return &Tracker{
		gt:        gt,
		spaceSize: spaceSize,
		found:     make(map[netmodel.Key]bool),
		foundPort: make(map[uint16]int),
	}
}

// Spend advances the probe counter without a discovery.
func (t *Tracker) Spend(probes uint64) { t.probes += probes }

// Record registers a discovered service. It returns true when the service
// is a new ground-truth hit.
func (t *Tracker) Record(k netmodel.Key) bool {
	if !t.gt.Contains(k) || t.found[k] {
		return false
	}
	t.found[k] = true
	t.foundPort[k.Port]++
	t.normAcc += 1 / float64(t.gt.PortCount(k.Port))
	return true
}

// FracAll returns Equation 1 at the current state.
func (t *Tracker) FracAll() float64 {
	if t.gt.total == 0 {
		return 0
	}
	return float64(len(t.found)) / float64(t.gt.total)
}

// FracNorm returns Equation 2 at the current state.
func (t *Tracker) FracNorm() float64 {
	if t.gt.NumPorts() == 0 {
		return 0
	}
	return t.normAcc / float64(t.gt.NumPorts())
}

// Precision returns ground-truth services found per probe.
func (t *Tracker) Precision() float64 {
	if t.probes == 0 {
		return 0
	}
	return float64(len(t.found)) / float64(t.probes)
}

// Snapshot appends the current state to the curve and returns it.
func (t *Tracker) Snapshot() Point {
	p := Point{
		Probes:    t.probes,
		Found:     len(t.found),
		FracAll:   t.FracAll(),
		FracNorm:  t.FracNorm(),
		Precision: t.Precision(),
	}
	if t.spaceSize > 0 {
		p.ScansUnits = float64(t.probes) / float64(t.spaceSize)
	}
	t.points = append(t.points, p)
	return p
}

// Curve returns the sampled points in probe order.
func (t *Tracker) Curve() Curve { return Curve(t.points) }

// Curve is an ordered sequence of samples.
type Curve []Point

// BandwidthFor returns the probe count at which the curve first reaches
// the given fraction of all services, or (0, false) if it never does.
func (c Curve) BandwidthFor(fracAll float64) (uint64, bool) {
	for _, p := range c {
		if p.FracAll >= fracAll {
			return p.Probes, true
		}
	}
	return 0, false
}

// BandwidthForNorm is BandwidthFor against the normalized metric.
func (c Curve) BandwidthForNorm(fracNorm float64) (uint64, bool) {
	for _, p := range c {
		if p.FracNorm >= fracNorm {
			return p.Probes, true
		}
	}
	return 0, false
}

// Final returns the last point (zero Point for an empty curve).
func (c Curve) Final() Point {
	if len(c) == 0 {
		return Point{}
	}
	return c[len(c)-1]
}

// PrecisionAt interpolates precision at a given fraction of services
// found. Used by Figure 3's "204x more precise at the 94th percentile"
// comparison.
func (c Curve) PrecisionAt(fracAll float64) (float64, bool) {
	i := sort.Search(len(c), func(i int) bool { return c[i].FracAll >= fracAll })
	if i == len(c) {
		return 0, false
	}
	return c[i].Precision, true
}
