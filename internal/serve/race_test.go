package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
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
				// JSON render) instead of the raw snapshot.
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

// TestConcurrentBodiesMatchSnapshot is the purity check under load: 8
// readers cycle over every endpoint while a committer publishes epoch
// after epoch, and every 200 must carry exactly the bytes a single
// goroutine renders from the snapshot the response's ETag names. What a
// snapshot shares between requests — its once-rendered aggregates —
// must never show through. Run with -race.
func TestConcurrentBodiesMatchSnapshot(t *testing.T) {
	const (
		epochs  = 40
		readers = 8
	)
	paths := []string{
		"/v1/stats", "/v1/ports", "/v1/host/10.0.0.1",
		"/v1/port/80?limit=4", "/v1/port/80?offset=4&limit=1000",
		"/v1/asn/200", "/v1/prefix/10.1.0.0?limit=7",
	}
	fetch := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		return rr
	}

	// The oracle, rendered before any concurrency starts, from snapshots
	// of its own: ETag -> path -> body.
	want := make(map[string]map[string]string)
	for e := 1; e <= epochs; e++ {
		var solo Publisher
		solo.Publish(NewSnapshot(e, testInventory(20+e, e)))
		h := NewServer(&solo).Handler()
		bodies := make(map[string]string)
		for _, p := range paths {
			bodies[p] = fetch(h, p).Body.String()
		}
		want[epochETag(e)] = bodies
	}

	var pub Publisher
	h := NewServer(&pub).Handler()
	var done atomic.Bool
	var served atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !done.Load(); i++ {
				path := paths[i%len(paths)]
				rr := fetch(h, path)
				served.Add(1)
				if rr.Code != http.StatusOK {
					continue // 503 before the first publish
				}
				etag := rr.Header().Get("ETag")
				if got := rr.Body.String(); got != want[etag][path] {
					t.Errorf("GET %s at %s:\n got %s\nwant %s", path, etag, got, want[etag][path])
					return
				}
			}
		}(r)
	}
	for e := 1; e <= epochs && !t.Failed(); e++ {
		pub.Publish(NewSnapshot(e, testInventory(20+e, e)))
		// Hold each epoch until every reader has been through it a few
		// times, so requests race both the swap and each other's first
		// render of the new snapshot.
		for until := served.Load() + 4*readers; served.Load() < until && !t.Failed(); {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
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
