package metrics

import (
	"math"
	"testing"

	"gps/internal/dataset"
	"gps/internal/netmodel"
)

func tinyDataset() *dataset.Dataset {
	// Port 80: 4 services; port 9999: 1 service. |P| = 2.
	return &dataset.Dataset{Records: []dataset.Record{
		{IP: 1, Port: 80}, {IP: 2, Port: 80}, {IP: 3, Port: 80}, {IP: 4, Port: 80},
		{IP: 5, Port: 9999},
	}}
}

func TestGroundTruthCounts(t *testing.T) {
	gt := NewGroundTruth(tinyDataset())
	if gt.Total() != 5 {
		t.Errorf("Total = %d; want 5", gt.Total())
	}
	if gt.NumPorts() != 2 {
		t.Errorf("NumPorts = %d; want 2", gt.NumPorts())
	}
	if gt.PortCount(80) != 4 || gt.PortCount(9999) != 1 {
		t.Error("PortCount wrong")
	}
	if !gt.Contains(netmodel.Key{IP: 1, Port: 80}) {
		t.Error("Contains missed a service")
	}
	if gt.Contains(netmodel.Key{IP: 1, Port: 81}) {
		t.Error("Contains invented a service")
	}
}

func TestGroundTruthDedup(t *testing.T) {
	d := &dataset.Dataset{Records: []dataset.Record{
		{IP: 1, Port: 80}, {IP: 1, Port: 80},
	}}
	gt := NewGroundTruth(d)
	if gt.Total() != 1 || gt.PortCount(80) != 1 {
		t.Error("duplicate records double-counted")
	}
}

func TestTrackerMetrics(t *testing.T) {
	gt := NewGroundTruth(tinyDataset())
	tr := NewTracker(gt, 1000)

	tr.Spend(500)
	if !tr.Record(netmodel.Key{IP: 1, Port: 80}) {
		t.Error("first record not counted")
	}
	if tr.Record(netmodel.Key{IP: 1, Port: 80}) {
		t.Error("duplicate record counted")
	}
	if tr.Record(netmodel.Key{IP: 99, Port: 80}) {
		t.Error("non-GT record counted")
	}
	tr.Record(netmodel.Key{IP: 5, Port: 9999})

	// Eq 1: 2/5. Eq 2: (1/4 + 1/1) / 2 = 0.625.
	if got := tr.FracAll(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("FracAll = %f; want 0.4", got)
	}
	if got := tr.FracNorm(); math.Abs(got-0.625) > 1e-12 {
		t.Errorf("FracNorm = %f; want 0.625", got)
	}
	if got := tr.Precision(); math.Abs(got-2.0/500) > 1e-12 {
		t.Errorf("Precision = %f; want 0.004", got)
	}
	p := tr.Snapshot()
	if p.ScansUnits != 0.5 {
		t.Errorf("ScansUnits = %f; want 0.5", p.ScansUnits)
	}
	if p.Found != 2 || p.Probes != 500 {
		t.Errorf("snapshot = %+v", p)
	}
}

func TestNormalizedWeighsPortsEqually(t *testing.T) {
	gt := NewGroundTruth(tinyDataset())
	tr := NewTracker(gt, 1000)
	// Finding the single rare-port service moves Eq 2 by 1/2 but Eq 1 by
	// only 1/5 — the normalized metric's entire point (§3).
	tr.Record(netmodel.Key{IP: 5, Port: 9999})
	if tr.FracNorm() != 0.5 {
		t.Errorf("FracNorm = %f; want 0.5", tr.FracNorm())
	}
	if tr.FracAll() != 0.2 {
		t.Errorf("FracAll = %f; want 0.2", tr.FracAll())
	}
}

func buildCurve() Curve {
	gt := NewGroundTruth(tinyDataset())
	tr := NewTracker(gt, 1000)
	tr.Snapshot()
	tr.Spend(100)
	tr.Record(netmodel.Key{IP: 1, Port: 80})
	tr.Snapshot()
	tr.Spend(100)
	tr.Record(netmodel.Key{IP: 2, Port: 80})
	tr.Record(netmodel.Key{IP: 3, Port: 80})
	tr.Snapshot()
	tr.Spend(800)
	tr.Record(netmodel.Key{IP: 4, Port: 80})
	tr.Record(netmodel.Key{IP: 5, Port: 9999})
	tr.Snapshot()
	return tr.Curve()
}

func TestCurveQueries(t *testing.T) {
	c := buildCurve()
	if bw, ok := c.BandwidthFor(0.6); !ok || bw != 200 {
		t.Errorf("BandwidthFor(0.6) = %d,%v; want 200,true", bw, ok)
	}
	if bw, ok := c.BandwidthFor(1.0); !ok || bw != 1000 {
		t.Errorf("BandwidthFor(1.0) = %d,%v", bw, ok)
	}
	if _, ok := c.BandwidthFor(1.1); ok {
		t.Error("BandwidthFor beyond max succeeded")
	}
	if bw, ok := c.BandwidthForNorm(1.0); !ok || bw != 1000 {
		t.Errorf("BandwidthForNorm(1.0) = %d,%v", bw, ok)
	}
	if got := c.Final(); got.Found != 5 {
		t.Errorf("Final().Found = %d", got.Found)
	}
	if (Curve{}).Final() != (Point{}) {
		t.Error("empty curve Final not zero")
	}
	if p, ok := c.PrecisionAt(0.6); !ok || p != 3.0/200 {
		t.Errorf("PrecisionAt(0.6) = %f,%v; want 0.015", p, ok)
	}
}

func TestTrackerZeroGT(t *testing.T) {
	gt := NewGroundTruth(&dataset.Dataset{})
	tr := NewTracker(gt, 0)
	if tr.FracAll() != 0 || tr.FracNorm() != 0 || tr.Precision() != 0 {
		t.Error("empty ground truth must yield zero metrics")
	}
	p := tr.Snapshot()
	if p.ScansUnits != 0 {
		t.Error("zero space must yield zero scan units")
	}
}
