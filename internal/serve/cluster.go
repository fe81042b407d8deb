package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strings"

	"gps/internal/shard"
)

// ClusterSource is the control-plane view behind GET /v1/cluster and
// the drain endpoint. *transport.Coordinator implements it directly.
type ClusterSource interface {
	// Status returns the live membership document: workers, per-shard
	// assignment and latency, and recent migrations.
	Status() shard.ClusterStatus
	// RequestDrain queues a worker's shards for migration away at the
	// next epoch boundary.
	RequestDrain(id string) error
}

// EnableCluster attaches the cluster control plane to the server:
//
//	GET  /v1/cluster                     live membership + migrations
//	POST /v1/cluster/workers/{id}/drain  migrate a worker's shards away
//
// Reads are always allowed. Mutations require admin=true (the daemon's
// -admin flag); without it the drain endpoint answers 403
// admin_disabled, so exposing the read view never implies granting
// control. Without a source both paths answer 404 cluster_unavailable.
// Returns s for chaining.
func (s *Server) EnableCluster(src ClusterSource, admin bool) *Server {
	s.cluster = src
	s.admin = admin
	return s
}

// handleCluster serves the membership document. The doc is live mutable
// state — it changes at every epoch boundary and the instant a worker
// registers — so it is explicitly uncacheable and carries no ETag.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed, "GET or HEAD only")
		return
	}
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, errClusterUnavailable,
			"this server fronts no coordinator; /v1/cluster is only served by a coordinator daemon")
		return
	}
	doc := s.cluster.Status()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	body, err := json.Marshal(doc)
	if err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, err.Error())
		return
	}
	w.Write(append(body, '\n'))
}

// handleClusterOp routes the /v1/cluster/ subtree. The only operation
// is workers/{id}/drain; anything else is the structured 404. Worker
// ids are opaque path segments ("w4", "127.0.0.1:9411") and arrive
// percent-decoded.
func (s *Server) handleClusterOp(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/cluster/")
	parts := strings.Split(rest, "/")
	if len(parts) != 3 || parts[0] != "workers" || parts[2] != "drain" || parts[1] == "" {
		s.handleNotFound(w, r)
		return
	}
	id, err := url.PathUnescape(parts[1])
	if err != nil {
		s.handleNotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed, "POST only")
		return
	}
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, errClusterUnavailable,
			"this server fronts no coordinator; /v1/cluster is only served by a coordinator daemon")
		return
	}
	if !s.admin {
		writeError(w, http.StatusForbidden, errAdminDisabled,
			"mutating cluster endpoints are disabled; start the daemon with -admin to enable them")
		return
	}
	if err := s.cluster.RequestDrain(id); err != nil {
		code, status := errDrainRejected, http.StatusConflict
		if strings.Contains(err.Error(), "unknown worker") {
			code, status = errUnknownWorker, http.StatusNotFound
		}
		writeError(w, status, code, err.Error())
		return
	}
	// 202, not 200: the drain is queued, and the shards move at the
	// next epoch boundary. Poll GET /v1/cluster for the handoff.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	body, _ := json.Marshal(struct {
		Status string `json:"status"`
		Worker string `json:"worker"`
	}{Status: "draining", Worker: id})
	w.Write(append(body, '\n'))
}
