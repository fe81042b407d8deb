package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotSwapConcurrent hammers readers while a committer publishes
// epoch after epoch — the exact interleaving gpsd -serve lives under. Run
// with -race (CI does). Each published snapshot carries a self-describing
// invariant: at epoch e the inventory holds sizeAt(e) services, every one
// of them seen at e. A reader observing any snapshot where the aggregates
// disagree with each other, or where its epoch sequence moves backward,
// proves a torn read or a non-atomic swap.
func TestSnapshotSwapConcurrent(t *testing.T) {
	const (
		epochs  = 60
		readers = 4
	)
	sizeAt := func(epoch int) int { return 20 + epoch }

	var pub Publisher
	srv := NewServer(&pub)
	h := srv.Handler()
	var done atomic.Bool
	var torn atomic.Int32

	check := func(lastEpoch int) int {
		snap := pub.Current()
		if snap == nil {
			return lastEpoch
		}
		e := snap.Epoch()
		if e < lastEpoch {
			t.Errorf("epoch went backward: %d after %d", e, lastEpoch)
			torn.Add(1)
		}
		st := snap.Stats()
		want := sizeAt(e)
		if st.Services != want || snap.NumServices() != want ||
			st.Freshness.Known != want || st.Freshness.Fresh != want {
			t.Errorf("epoch %d: inconsistent aggregates %+v; want %d services, all fresh", e, st, want)
			torn.Add(1)
		}
		sum := 0
		for _, pc := range snap.Ports() {
			sum += pc.Services
		}
		if sum != want {
			t.Errorf("epoch %d: port aggregate sums to %d; want %d", e, sum, want)
			torn.Add(1)
		}
		return e
	}

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := 0
			for i := 0; !done.Load() && torn.Load() == 0; i++ {
				last = check(last)
				if i%8 != 0 {
					continue
				}
				// Every so often go through the full HTTP path (ETag,
				// cache, JSON render) instead of the raw snapshot.
				req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				if rr.Code == http.StatusServiceUnavailable {
					continue
				}
				var body struct {
					Epoch    int `json:"epoch"`
					Services int `json:"services"`
					Fresh    int `json:"fresh"`
				}
				if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
					t.Errorf("reader %d: bad stats body: %v", r, err)
					torn.Add(1)
					return
				}
				if body.Epoch < last {
					t.Errorf("served epoch went backward: %d after %d", body.Epoch, last)
					torn.Add(1)
				}
				if want := sizeAt(body.Epoch); body.Services != want || body.Fresh != want {
					t.Errorf("served epoch %d: %d services %d fresh; want %d", body.Epoch, body.Services, body.Fresh, want)
					torn.Add(1)
				}
				last = body.Epoch
			}
		}(r)
	}

	for e := 1; e <= epochs && torn.Load() == 0; e++ {
		if !pub.Publish(NewSnapshot(e, testInventory(sizeAt(e), e))) {
			t.Errorf("publish of epoch %d refused", e)
		}
	}
	done.Store(true)
	wg.Wait()

	if got := pub.Current().Epoch(); got != epochs && torn.Load() == 0 {
		t.Errorf("final epoch %d; want %d", got, epochs)
	}
}

// TestReplicaEpochInvariant hammers a replica's three views of "the
// current epoch" from a reader goroutine while an origin commits epoch
// after epoch, asserting the ReplicaServer invariant on every read:
//
//	Feed().Head() >= Publisher().Current().Epoch() >= Epoch()
//
// Every view only moves forward, so reading the smallest first keeps the
// check sound without a lock: a view read later can only have grown. A
// replica that serves an epoch before its feed has committed it — so a
// client reading an ETag at N cannot yet subscribe from N — fails here.
func TestReplicaEpochInvariant(t *testing.T) {
	const epochs = 300
	origin := NewFeed(8)
	defer origin.Close()
	origin.Commit(0, testInventory(5, 0))
	addr, shutdown := startOriginFeed(t, origin)
	defer shutdown()

	rep := NewReplicaServer(addr, fastReplicaOpts())
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); rep.Run(ctx) }()
	defer func() { cancel(); <-runDone }()

	var stop atomic.Bool
	var reads int
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for ; !stop.Load() && !t.Failed(); reads++ {
			epoch, published := rep.Epoch(), -1
			if snap := rep.Publisher().Current(); snap != nil {
				published = snap.Epoch()
			}
			if head := rep.Feed().Head(); head < published || published < epoch {
				t.Errorf("read %d: Feed().Head()=%d Publisher().Current().Epoch()=%d Epoch()=%d; want head >= published >= epoch",
					reads, head, published, epoch)
			}
		}
	}()

	for e := 1; e <= epochs && !t.Failed(); e++ {
		waitReplicaEpoch(t, rep, e-1)
		origin.Commit(e, testInventory(5+e%7, e))
	}
	if !t.Failed() {
		waitReplicaEpoch(t, rep, epochs)
	}
	stop.Store(true)
	<-readerDone
	if reads < epochs && !t.Failed() {
		t.Errorf("reader made %d observations over %d epochs; the hammer never ran", reads, epochs)
	}
}
