package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"gps/internal/serve"
)

// healthzDoc fetches /v1/healthz from h and returns the status code and
// the decoded body.
func healthzDoc(t *testing.T, h http.Handler) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("healthz body %q: %v", rec.Body.String(), err)
	}
	return rec.Code, doc
}

// TestHealthEndpointsAgree: every mode declares its role once, from the
// flags main dispatches on, and both listeners a process can open — the
// -debug-addr side channel and the -serve query API — render that one
// document. Before, each mode wrote its role twice (and `serve FILE`
// and the replica wrote only one of the two), so the two /v1/healthz
// answers could differ in role, shards_owned, feed_lag and status.
func TestHealthEndpointsAgree(t *testing.T) {
	rep := serve.NewReplicaServer("127.0.0.1:1", nil) // never run: still bootstrapping
	served := &serve.Publisher{}
	served.Publish(serve.NewSnapshot(7, nil))

	for _, tc := range []struct {
		role   string
		args   []string
		pub    *serve.Publisher
		live   func(*serve.HealthInfo)
		drain  bool
		shards float64 // want shards_owned
		status string
	}{
		{role: "origin", args: []string{"-shards", "3", "-serve", ":0"}, pub: served, shards: 3, status: "ok"},
		{role: "coordinator", args: []string{"coordinator", "-workers", "w:1", "-shards", "4", "-serve", ":0"}, pub: served, shards: 4, status: "ok"},
		{role: "file", args: []string{"serve", "inv.bin", "-serve", ":0"}, pub: served, status: "ok"},
		{role: "replica", args: []string{"replica", "-upstream", "o:1", "-serve", ":0"}, pub: rep.Publisher(), live: replicaHealthLive(rep), status: "starting"},
		{role: "worker", args: []string{"worker", "-join", "c:1", "-leave"}, pub: served, live: workerHealthLive, drain: true, shards: 2, status: "draining"},
	} {
		t.Run(tc.role, func(t *testing.T) {
			f, err := parseArgs(tc.args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			// What main and the mode runner do before any listener opens.
			declareProcessHealth(f)
			if tc.live != nil {
				setProcessHealthLive(tc.live)
			}
			if tc.drain {
				setProcessHealth(func(i *serve.HealthInfo) { i.Draining = true })
			}
			workerShardsOwned.Set(2) // only the worker's overlay may read it
			t.Cleanup(func() { workerShardsOwned.Set(0) })

			debugCode, debugDoc := healthzDoc(t, debugMux())
			serveCode, serveDoc := healthzDoc(t, newAPIServer(tc.pub).Handler())
			if debugDoc["role"] != tc.role {
				t.Errorf("debug listener role %v; want %q", debugDoc["role"], tc.role)
			}
			if tc.shards != 0 && debugDoc["shards_owned"] != tc.shards {
				t.Errorf("debug listener shards_owned %v; want %v", debugDoc["shards_owned"], tc.shards)
			}
			if tc.shards == 0 && debugDoc["shards_owned"] != nil {
				t.Errorf("debug listener shards_owned %v; want it absent", debugDoc["shards_owned"])
			}
			if debugDoc["status"] != tc.status {
				t.Errorf("debug listener status %v; want %q", debugDoc["status"], tc.status)
			}
			for _, field := range []string{"status", "role", "shards_owned", "feed_lag", "draining"} {
				if debugDoc[field] != serveDoc[field] {
					t.Errorf("%s: debug listener says %v, serve listener says %v", field, debugDoc[field], serveDoc[field])
				}
			}
			if debugCode != serveCode {
				t.Errorf("debug listener answers %d, serve listener %d", debugCode, serveCode)
			}
		})
	}
}
