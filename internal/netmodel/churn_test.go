package netmodel

import (
	"math"
	"sync"
	"testing"
)

// TestChurnDeterministic: the same universe churned twice with the same
// parameters must produce identical universes. This is what makes the
// continuous subsystem's checkpoint/resume reproducible — and it is easy
// to lose by consuming rng draws in map-iteration order.
func TestChurnDeterministic(t *testing.T) {
	u := testUniverse(t)
	p := DefaultChurn(77)
	a, b := Churn(u, p), Churn(u, p)
	if a.NumHosts() != b.NumHosts() || a.NumServices() != b.NumServices() {
		t.Fatalf("churn runs differ: %d/%d hosts, %d/%d services",
			a.NumHosts(), b.NumHosts(), a.NumServices(), b.NumServices())
	}
	for _, ha := range a.Hosts() {
		hb, ok := b.HostAt(ha.IP)
		if !ok {
			t.Fatalf("host %v only survived in one run", ha.IP)
		}
		if len(ha.Services()) != len(hb.Services()) {
			t.Fatalf("host %v: %d vs %d services", ha.IP, len(ha.Services()), len(hb.Services()))
		}
		for _, svc := range ha.Services() {
			if _, ok := hb.ServiceAt(svc.Port); !ok {
				t.Fatalf("service %v:%d only survived in one run", ha.IP, svc.Port)
			}
		}
	}
	// A different seed must churn differently.
	c := Churn(u, DefaultChurn(78))
	if c.NumServices() == a.NumServices() && c.NumHosts() == a.NumHosts() {
		t.Error("different churn seeds produced identical universes (suspicious)")
	}
}

// TestChurnLossRates checks the measured loss against the parameters.
// A service disappears when its host dies (HostLoss) or its own coin
// fires (ServiceLoss / ForwardedLoss for forwarded services), so the
// expected loss is 1-(1-HostLoss)(1-perServiceLoss).
func TestChurnLossRates(t *testing.T) {
	u := testUniverse(t)
	p := DefaultChurn(123)
	after := Churn(u, p)

	var normTotal, normLost, fwdTotal, fwdLost float64
	for _, h := range u.Hosts() {
		for _, svc := range h.Services() {
			_, alive := after.ServiceAt(h.IP, svc.Port)
			if svc.Forwarded {
				fwdTotal++
				if !alive {
					fwdLost++
				}
			} else {
				normTotal++
				if !alive {
					normLost++
				}
			}
		}
	}
	if normTotal < 1000 || fwdTotal < 200 {
		t.Fatalf("universe too small to measure rates (%d normal, %d forwarded services)",
			int(normTotal), int(fwdTotal))
	}

	wantNorm := 1 - (1-p.HostLoss)*(1-p.ServiceLoss)
	wantFwd := 1 - (1-p.HostLoss)*(1-p.ForwardedLoss)
	// 5-sigma binomial tolerance (floored at 1%) keeps the test tight
	// but not flaky.
	tol := func(want, n float64) float64 {
		return math.Max(0.01, 5*math.Sqrt(want*(1-want)/n))
	}
	if got := normLost / normTotal; math.Abs(got-wantNorm) > tol(wantNorm, normTotal) {
		t.Errorf("normal-service loss %.4f; want %.4f±%.4f", got, wantNorm, tol(wantNorm, normTotal))
	}
	if got := fwdLost / fwdTotal; math.Abs(got-wantFwd) > tol(wantFwd, fwdTotal) {
		t.Errorf("forwarded-service loss %.4f; want %.4f±%.4f", got, wantFwd, tol(wantFwd, fwdTotal))
	}
	if fwdLost/fwdTotal <= normLost/normTotal {
		t.Error("forwarded services must churn faster than normal ones (§3)")
	}
}

// TestChurnSharesUnchangedHosts: hosts that survive with every service
// intact must be shared (same pointer) between the two universes, per the
// Churn doc comment — copying ~97% of hosts every epoch would make the
// continuous subsystem's per-epoch churn step O(universe) in allocations.
func TestChurnSharesUnchangedHosts(t *testing.T) {
	u := testUniverse(t)
	after := Churn(u, DefaultChurn(9))

	shared, copied := 0, 0
	for _, h := range after.Hosts() {
		orig, ok := u.HostAt(h.IP)
		if !ok {
			t.Fatalf("churn invented host %v", h.IP)
		}
		if h == orig {
			shared++
			continue
		}
		copied++
		// A copied host must have actually lost something.
		if len(h.Services()) >= len(orig.Services()) {
			t.Errorf("host %v copied without losing services (%d -> %d)",
				h.IP, len(orig.Services()), len(h.Services()))
		}
	}
	if shared == 0 {
		t.Error("no surviving host is shared; unchanged hosts should not be copied")
	}
	if copied == 0 {
		t.Error("no host was rewritten; churn seems to have dropped nothing")
	}
	if shared < copied {
		t.Errorf("shared %d < copied %d; most hosts survive churn unchanged", shared, copied)
	}
}

// TestConcurrentChurn: a Universe is safe for concurrent reads and Churn
// only reads its input, so two goroutines may churn one universe at once
// and must agree. Under -race this fails if reading a host writes to it.
func TestConcurrentChurn(t *testing.T) {
	u := testUniverse(t)
	out := make([]*Universe, 2)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = Churn(u, DefaultChurn(9))
		}(i)
	}
	wg.Wait()
	if out[0].NumHosts() != out[1].NumHosts() || out[0].NumServices() != out[1].NumServices() {
		t.Fatalf("concurrent churns disagree: %d/%d vs %d/%d hosts/services",
			out[0].NumHosts(), out[0].NumServices(), out[1].NumHosts(), out[1].NumServices())
	}
}
