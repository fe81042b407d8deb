package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// HealthInfo is one process's role-specific readiness, folded into the
// /v1/healthz document next to the snapshot-derived fields. Every field
// is optional: a plain file server has no role source at all and serves
// the classic {"status","epoch","services"} body unchanged.
type HealthInfo struct {
	// Role names what this process is in the deployment: "origin",
	// "coordinator", "worker", "replica", or "file" (gpsd's one-shot
	// tool reports its own name, "watch").
	Role string
	// ShardsOwned is the number of shards this process currently
	// computes (coordinator: total; worker: its session's share).
	ShardsOwned int
	// Draining is true once the process has begun migrating its work
	// away; healthz answers 503 so load balancers stop routing to it.
	Draining bool
	// Bootstrapping is true before the process holds servable state
	// (replica before its first snapshot frame); healthz answers 503.
	Bootstrapping bool
	// FeedLag is how many epochs this process trails its upstream
	// (replicas only; 0 everywhere else).
	FeedLag int
}

// HealthSource supplies live readiness for the healthz document.
// *ReplicaServer implements it; daemons wire their own via HealthFunc.
type HealthSource interface {
	Health() HealthInfo
}

// HealthFunc adapts a closure to HealthSource.
type HealthFunc func() HealthInfo

// Health implements HealthSource.
func (f HealthFunc) Health() HealthInfo { return f() }

// SetHealthSource attaches role-specific readiness to the server's
// /v1/healthz document. Returns s for chaining.
func (s *Server) SetHealthSource(hs HealthSource) *Server {
	s.health = hs
	return s
}

// healthJSON is the healthz body. The first three fields predate the
// role-aware document and keep their exact shape — probes and scripts
// grep for "status":"ok" — while the role fields only appear when a
// HealthSource is attached.
type healthJSON struct {
	Status      string `json:"status"`
	Epoch       int    `json:"epoch"`
	Services    int    `json:"services"`
	Role        string `json:"role,omitempty"`
	ShardsOwned int    `json:"shards_owned,omitempty"`
	FeedLag     int    `json:"feed_lag,omitempty"`
	Draining    bool   `json:"draining,omitempty"`
}

// writeHealth renders one readiness document. Any status but "ok" is a
// 503 with Retry-After — "starting" resolves when state arrives,
// "draining" tells the balancer to route elsewhere while the process
// hands its shards off. ?format=text swaps the JSON for the bare status
// word, so shell probes can `curl -f` or string-compare without jq.
func writeHealth(w http.ResponseWriter, r *http.Request, doc healthJSON) {
	code := http.StatusOK
	if doc.Status != "ok" {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(code)
		fmt.Fprintln(w, doc.Status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body, _ := json.Marshal(doc)
	w.Write(append(body, '\n'))
}

// roleDoc is the role part of the readiness document: what a process
// says about itself whether or not it serves an inventory.
func roleDoc(info HealthInfo) healthJSON {
	doc := healthJSON{
		Status: "ok", Role: info.Role,
		ShardsOwned: info.ShardsOwned, FeedLag: info.FeedLag,
		Draining: info.Draining,
	}
	if info.Bootstrapping {
		doc.Status = "starting"
	}
	if info.Draining {
		doc.Status = "draining"
	}
	return doc
}

// healthDoc is the served document: the attached HealthSource's role
// part plus the snapshot fields; with no snapshot published yet the
// server is starting, whatever its role says.
func (s *Server) healthDoc() healthJSON {
	var info HealthInfo
	if s.health != nil {
		info = s.health.Health()
	}
	doc := roleDoc(info)
	if snap := s.pub.Current(); snap != nil {
		doc.Epoch = snap.Epoch()
		doc.Services = snap.NumServices()
	} else {
		doc.Status = "starting"
	}
	return doc
}

// HealthHandler is a standalone /v1/healthz endpoint for processes that
// serve no inventory — a worker's debug mux has readiness but no
// Publisher. Same document and text mode, minus the snapshot fields.
func HealthHandler(hs HealthSource) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed, "GET or HEAD only")
			return
		}
		writeHealth(w, r, roleDoc(hs.Health()))
	})
}
