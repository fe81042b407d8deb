package serve

import (
	"errors"
	"net/http"
	"strings"
	"testing"

	"gps/internal/shard"
)

// fakeCluster is a canned ClusterSource: a fixed status document plus a
// scripted drain response, recording what ids were drained.
type fakeCluster struct {
	doc      shard.ClusterStatus
	drainErr error
	drained  []string
}

func (f *fakeCluster) Status() shard.ClusterStatus { return f.doc }

func (f *fakeCluster) RequestDrain(id string) error {
	if f.drainErr != nil {
		return f.drainErr
	}
	f.drained = append(f.drained, id)
	return nil
}

func testClusterDoc() shard.ClusterStatus {
	return shard.ClusterStatus{
		Epoch:  7,
		Shards: 4,
		Workers: []shard.WorkerStatus{
			{ID: "w0", Addr: "127.0.0.1:9001", State: shard.WorkerAlive, ShardCount: 2, Shards: []int{0, 1}},
			{ID: "w1", Addr: "127.0.0.1:9002", State: shard.WorkerAlive, ShardCount: 2, Shards: []int{2, 3}},
		},
	}
}

func TestClusterEndpointDisabled(t *testing.T) {
	var pub Publisher
	h := NewServer(&pub).Handler()

	rr, body := get(t, h, "/v1/cluster", nil)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/cluster without source: %d", rr.Code)
	}
	if e := errEnvelope(t, "GET", "/v1/cluster", body); e["code"] != "cluster_unavailable" {
		t.Fatalf("code %v; want cluster_unavailable", e["code"])
	}
	rr, body = request(t, h, http.MethodPost, "/v1/cluster/workers/w0/drain")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("POST drain without source: %d", rr.Code)
	}
	if e := errEnvelope(t, "POST", "drain", body); e["code"] != "cluster_unavailable" {
		t.Fatalf("code %v; want cluster_unavailable", e["code"])
	}
}

func TestClusterEndpointRead(t *testing.T) {
	var pub Publisher
	src := &fakeCluster{doc: testClusterDoc()}
	h := NewServer(&pub).EnableCluster(src, false).Handler()

	rr, body := get(t, h, "/v1/cluster", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /v1/cluster: %d %v", rr.Code, body)
	}
	if cc := rr.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control %q; want no-store", cc)
	}
	if body["epoch"] != float64(7) || body["shards"] != float64(4) {
		t.Errorf("doc header: %v", body)
	}
	workers, ok := body["workers"].([]any)
	if !ok || len(workers) != 2 {
		t.Fatalf("workers: %v", body["workers"])
	}
	w0 := workers[0].(map[string]any)
	if w0["id"] != "w0" || w0["state"] != "alive" || w0["shard_count"] != float64(2) {
		t.Errorf("worker row: %v", w0)
	}

	// The doc is live state: methods beyond GET/HEAD are refused.
	if rr, _ := request(t, h, http.MethodPost, "/v1/cluster"); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/cluster: %d; want 405", rr.Code)
	}
}

func TestClusterDrainAdminGate(t *testing.T) {
	var pub Publisher
	src := &fakeCluster{doc: testClusterDoc()}

	// Admin off (the default): reads work, mutations are forbidden.
	h := NewServer(&pub).EnableCluster(src, false).Handler()
	rr, body := request(t, h, http.MethodPost, "/v1/cluster/workers/w0/drain")
	if rr.Code != http.StatusForbidden {
		t.Fatalf("drain without -admin: %d %v", rr.Code, body)
	}
	if e := errEnvelope(t, "POST", "drain", body); e["code"] != "admin_disabled" {
		t.Fatalf("code %v; want admin_disabled", e["code"])
	}
	if len(src.drained) != 0 {
		t.Fatalf("drain reached the source despite the gate: %v", src.drained)
	}

	// Admin on: the drain is accepted and queued.
	h = NewServer(&pub).EnableCluster(src, true).Handler()
	rr, body = request(t, h, http.MethodPost, "/v1/cluster/workers/w0/drain")
	if rr.Code != http.StatusAccepted || body["status"] != "draining" || body["worker"] != "w0" {
		t.Fatalf("drain: %d %v", rr.Code, body)
	}
	if len(src.drained) != 1 || src.drained[0] != "w0" {
		t.Fatalf("source saw drains %v; want [w0]", src.drained)
	}

	// Worker ids are opaque segments; host:port and percent-encoded
	// forms both resolve.
	rr, body = request(t, h, http.MethodPost, "/v1/cluster/workers/127.0.0.1:9002/drain")
	if rr.Code != http.StatusAccepted || body["worker"] != "127.0.0.1:9002" {
		t.Fatalf("addr-id drain: %d %v", rr.Code, body)
	}
	rr, body = request(t, h, http.MethodPost, "/v1/cluster/workers/w%32/drain")
	if rr.Code != http.StatusAccepted || body["worker"] != "w2" {
		t.Fatalf("escaped-id drain: %d %v", rr.Code, body)
	}

	// GET on the drain path is a 405 with the POST allowance, not 404.
	rr, _ = get(t, h, "/v1/cluster/workers/w0/drain", nil)
	if rr.Code != http.StatusMethodNotAllowed || rr.Header().Get("Allow") != "POST" {
		t.Errorf("GET drain: %d Allow %q", rr.Code, rr.Header().Get("Allow"))
	}

	// Unknown subtree paths fall through to the structured 404.
	for _, path := range []string{
		"/v1/cluster/workers", "/v1/cluster/workers/w0",
		"/v1/cluster/workers/w0/restart", "/v1/cluster/nope/w0/drain",
	} {
		rr, body := request(t, h, http.MethodPost, path)
		if rr.Code != http.StatusNotFound {
			t.Errorf("POST %s: %d; want 404", path, rr.Code)
			continue
		}
		if e := errEnvelope(t, "POST", path, body); e["code"] != "not_found" {
			t.Errorf("POST %s: code %v; want not_found", path, e["code"])
		}
	}
}

func TestClusterDrainErrors(t *testing.T) {
	var pub Publisher
	src := &fakeCluster{doc: testClusterDoc()}
	h := NewServer(&pub).EnableCluster(src, true).Handler()

	src.drainErr = errors.New(`transport: unknown worker "ghost"`)
	rr, body := request(t, h, http.MethodPost, "/v1/cluster/workers/ghost/drain")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown worker drain: %d %v", rr.Code, body)
	}
	if e := errEnvelope(t, "POST", "drain", body); e["code"] != "unknown_worker" {
		t.Fatalf("code %v; want unknown_worker", e["code"])
	}

	src.drainErr = errors.New(`transport: worker "w0" is already drained`)
	rr, body = request(t, h, http.MethodPost, "/v1/cluster/workers/w0/drain")
	if rr.Code != http.StatusConflict {
		t.Fatalf("conflicting drain: %d %v", rr.Code, body)
	}
	if e := errEnvelope(t, "POST", "drain", body); e["code"] != "drain_rejected" {
		t.Fatalf("code %v; want drain_rejected", e["code"])
	}
}

func TestHealthzRoleDocument(t *testing.T) {
	var pub Publisher
	draining := false
	s := NewServer(&pub).SetHealthSource(HealthFunc(func() HealthInfo {
		return HealthInfo{Role: "coordinator", ShardsOwned: 4, Draining: draining}
	}))
	h := s.Handler()

	// No snapshot yet: starting, 503, role still reported.
	rr, body := get(t, h, "/v1/healthz", nil)
	if rr.Code != http.StatusServiceUnavailable || body["status"] != "starting" {
		t.Fatalf("cold healthz: %d %v", rr.Code, body)
	}
	if body["role"] != "coordinator" {
		t.Errorf("cold healthz role: %v", body)
	}

	pub.Publish(NewSnapshot(3, nil))
	rr, body = get(t, h, "/v1/healthz", nil)
	if rr.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", rr.Code, body)
	}
	if body["role"] != "coordinator" || body["shards_owned"] != float64(4) || body["epoch"] != float64(3) {
		t.Errorf("healthz doc: %v", body)
	}
	if _, present := body["draining"]; present {
		t.Errorf("draining=false should be omitted: %v", body)
	}

	// Text mode: the bare status word, probe-friendly.
	rr, _ = get(t, h, "/v1/healthz?format=text", nil)
	if rr.Code != http.StatusOK || strings.TrimSpace(rr.Body.String()) != "ok" {
		t.Fatalf("text healthz: %d %q", rr.Code, rr.Body.String())
	}

	// Draining flips the doc to 503 so balancers route away, even
	// though the snapshot still serves.
	draining = true
	rr, body = get(t, h, "/v1/healthz", nil)
	if rr.Code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("draining healthz: %d %v", rr.Code, body)
	}
	if body["draining"] != true || rr.Header().Get("Retry-After") == "" {
		t.Errorf("draining healthz doc: %v Retry-After %q", body, rr.Header().Get("Retry-After"))
	}
	rr, _ = get(t, h, "/v1/healthz?format=text", nil)
	if rr.Code != http.StatusServiceUnavailable || strings.TrimSpace(rr.Body.String()) != "draining" {
		t.Errorf("draining text healthz: %d %q", rr.Code, rr.Body.String())
	}
}

func TestHealthHandlerStandalone(t *testing.T) {
	boot := true
	h := HealthHandler(HealthFunc(func() HealthInfo {
		return HealthInfo{Role: "worker", ShardsOwned: 2, Bootstrapping: boot}
	}))

	rr, body := get(t, h, "/v1/healthz", nil)
	if rr.Code != http.StatusServiceUnavailable || body["status"] != "starting" {
		t.Fatalf("bootstrapping worker healthz: %d %v", rr.Code, body)
	}
	boot = false
	rr, body = get(t, h, "/v1/healthz", nil)
	if rr.Code != http.StatusOK || body["status"] != "ok" || body["role"] != "worker" {
		t.Fatalf("worker healthz: %d %v", rr.Code, body)
	}
	if body["shards_owned"] != float64(2) {
		t.Errorf("worker healthz doc: %v", body)
	}
	if rr, _ := request(t, h, http.MethodPost, "/v1/healthz"); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST healthz: %d; want 405", rr.Code)
	}
}
