package serve

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"gps/internal/asndb"
	"gps/internal/telemetry"
	"gps/internal/trace"
)

// Pagination bounds. The limits keep one request's work bounded no
// matter how large the inventory grows.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// Server is the HTTP query API over a Publisher. Every handler is a pure
// reader: it loads the current snapshot once, answers entirely from it,
// and tags the response with an ETag derived from the snapshot epoch so
// pollers revalidate with If-None-Match for free 304s between commits.
// The Server itself holds configuration only — no request ever writes to
// it — so a response is a pure function of the snapshot and the URL.
//
//	GET /v1/healthz          liveness + current epoch (503 until first publish)
//	GET /v1/stats            precomputed aggregates (services, hosts, freshness)
//	GET /v1/ports            per-port service counts
//	GET /v1/host/{ip}        every service on one address
//	GET /v1/port/{port}      services on a port       (?offset=&limit=)
//	GET /v1/asn/{asn}        services in an AS        (?offset=&limit=)
//	GET /v1/prefix/{ip}      services in ip's /16     (?offset=&limit=)
//
// List bodies are pure functions of the inventory (the epoch travels in
// the ETag and /v1/stats only), so two servers holding byte-identical
// inventories serve byte-identical list responses — the distributed CI
// gate curls a live coordinator and a standalone file server and diffs.
type Server struct {
	pub     *Publisher
	feed    *Feed         // change feed behind GET /v1/watch; nil disables it
	cluster ClusterSource // control plane behind /v1/cluster; nil disables it
	admin   bool          // mutating cluster endpoints enabled
	health  HealthSource  // role-specific readiness for /v1/healthz; nil = plain
}

// NewServer wraps a Publisher. Multiple servers may share one publisher.
func NewServer(pub *Publisher) *Server {
	return &Server{pub: pub}
}

// EnableWatch attaches a change feed to the server: GET /v1/watch then
// streams per-epoch delta JSON from it (see watch.go). Without a feed
// the endpoint answers 404 watch_unavailable. Returns s for chaining.
func (s *Server) EnableWatch(f *Feed) *Server {
	s.feed = f
	return s
}

// Handler returns the API's routing handler, ready to mount on an
// http.Server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/v1/stats", instrument("stats", s.handleStats))
	mux.HandleFunc("/v1/ports", instrument("ports", s.handlePorts))
	mux.HandleFunc("/v1/host/", instrument("host", s.handleHost))
	mux.HandleFunc("/v1/port/", instrument("port", s.handlePort))
	mux.HandleFunc("/v1/asn/", instrument("asn", s.handleASN))
	mux.HandleFunc("/v1/prefix/", instrument("prefix", s.handlePrefix))
	mux.HandleFunc("/v1/watch", instrument("watch", s.handleWatch))
	mux.HandleFunc("/v1/cluster", instrument("cluster", s.handleCluster))
	mux.HandleFunc("/v1/cluster/", instrument("cluster_op", s.handleClusterOp))
	mux.Handle("/v1/metricz", telemetry.Handler())
	mux.Handle("/v1/tracez", trace.Handler())
	mux.Handle("/v1/debugz", trace.DebugzHandler(trace.DebugzOptions{
		Metrics: func(w io.Writer) error { _, err := telemetry.Default.WriteTo(w); return err },
		Cluster: func() (any, bool) {
			if s.cluster == nil {
				return nil, false
			}
			return s.cluster.Status(), true
		},
	}))
	// Everything else is a structured 404, not the mux's plain-text
	// default: clients get the same error envelope on a typo'd path as
	// on any other failure.
	mux.HandleFunc("/", instrument("notfound", s.handleNotFound))
	return mux
}

// JSON shapes of the two aggregate bodies. Fields marshal in declaration
// order, so bodies are byte-deterministic for a given inventory. List
// bodies have no mirror structs: writeList renders them in place.

type statsJSON struct {
	Epoch     int     `json:"epoch"`
	Services  int     `json:"services"`
	Hosts     int     `json:"hosts"`
	Ports     int     `json:"ports"`
	Prefixes  int     `json:"prefixes"`
	ASNs      int     `json:"asns"`
	Fresh     int     `json:"fresh"`
	Stale     int     `json:"stale"`
	FreshFrac float64 `json:"fresh_frac"`
	StaleRate float64 `json:"stale_rate"`
}

type portCountJSON struct {
	Port     uint16 `json:"port"`
	Services int    `json:"services"`
}

type portsJSON struct {
	Total int             `json:"total"`
	Ports []portCountJSON `json:"ports"`
}

// snapshot is the per-request preamble: method gate and the current
// snapshot (or 503 before the first publish). A false return means the
// response is already written. Conditional revalidation happens in
// needsBody, after the handler validated its inputs — a malformed URL
// must 400, not 304, whatever ETag the client waves around.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) (*Snapshot, bool) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed, "GET or HEAD only")
		return nil, false
	}
	snap := s.pub.Current()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, errNoSnapshot, "no inventory snapshot published yet")
		return nil, false
	}
	return snap, true
}

// epochETag derives the strong validator every response carries: the
// inventory can only change by snapshot swap, and a swap always advances
// the epoch, so the epoch alone identifies the response bytes.
func epochETag(epoch int) string { return `"gps-epoch-` + strconv.Itoa(epoch) + `"` }

// matchesETag implements If-None-Match per RFC 9110 §13.1.2: weak
// comparison, so a candidate's `W/` prefix is ignored. Caches and
// proxies routinely weaken validators in transit (nginx does on gzip),
// and a client echoing `W/"gps-epoch-7"` back means "I hold epoch 7" as
// surely as the strong form — denying it the 304 would re-send the full
// body forever.
func matchesETag(ifNoneMatch, etag string) bool {
	if strings.TrimSpace(ifNoneMatch) == "*" {
		return true
	}
	for _, c := range strings.Split(ifNoneMatch, ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == strings.TrimPrefix(etag, "W/") {
			return true
		}
	}
	return false
}

// Machine-readable error codes. Every non-2xx/304 response carries one
// in the error envelope; the set is part of the v1 contract.
const (
	errMethodNotAllowed = "method_not_allowed" // 405
	errNoSnapshot       = "no_snapshot"        // 503: nothing published yet
	errNotFound         = "not_found"          // 404: no such endpoint
	errBadIP            = "bad_ip"             // 400
	errBadPort          = "bad_port"           // 400
	errBadASN           = "bad_asn"            // 400
	errBadPage          = "bad_page"           // 400: offset/limit malformed or mixed with cursor
	errBadCursor        = "bad_cursor"         // 400: cursor undecodable
	errBadSince         = "bad_since"          // 400: ?since= malformed
	errSnapshotRotated  = "snapshot_rotated"   // 410: cursor's epoch was swapped out
	errWatchUnavailable = "watch_unavailable"  // 404: server runs without a change feed
	errInternal         = "internal"           // 500

	// Cluster control-plane codes (see cluster.go).
	errClusterUnavailable = "cluster_unavailable" // 404: no coordinator behind this server
	errAdminDisabled      = "admin_disabled"      // 403: mutation without -admin
	errUnknownWorker      = "unknown_worker"      // 404: drain target not in the fleet
	errDrainRejected      = "drain_rejected"      // 409: target already drained or dead
)

// errorJSON is the stable error envelope every /v1 failure returns:
//
//	{"error":{"code":"bad_port","message":"...","cursor":"..."}}
//
// Code is machine-readable and stable; Message is for humans; Cursor is
// only present on snapshot_rotated, carrying a fresh first-page cursor
// for the current epoch.
type errorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Cursor  string `json:"cursor,omitempty"`
}

func writeErrorEnvelope(w http.ResponseWriter, status int, e errorJSON) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		// The snapshot appears as soon as the producer commits (or the
		// replica bootstraps); tell pollers to come back, not give up.
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	body, _ := json.Marshal(struct {
		Error errorJSON `json:"error"`
	}{e})
	w.Write(append(body, '\n'))
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeErrorEnvelope(w, status, errorJSON{Code: code, Message: msg})
}

// Cursor pagination. A cursor is an opaque resume token for one list
// query: base64url over "v1:EPOCH:OFFSET". Binding the epoch in lets the
// server detect a snapshot swap mid-pagination — the offsets a client
// walked no longer mean the same rows — and answer 410 snapshot_rotated
// (with a fresh first-page cursor) instead of silently splicing two
// different inventories together. ?offset=&limit= remain accepted for
// one-shot queries; cursor and offset are mutually exclusive.

func encodeCursor(epoch, offset int) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(fmt.Sprintf("v1:%d:%d", epoch, offset)))
}

func decodeCursor(token string) (epoch, offset int, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return 0, 0, fmt.Errorf("bad cursor %q", token)
	}
	parts := strings.Split(string(raw), ":")
	if len(parts) != 3 || parts[0] != "v1" {
		return 0, 0, fmt.Errorf("bad cursor %q", token)
	}
	if epoch, err = strconv.Atoi(parts[1]); err != nil {
		return 0, 0, fmt.Errorf("bad cursor %q", token)
	}
	if offset, err = strconv.Atoi(parts[2]); err != nil || offset < 0 {
		return 0, 0, fmt.Errorf("bad cursor %q", token)
	}
	return epoch, offset, nil
}

// needsBody finishes the headers of one validated query and reports
// whether a body follows: a client whose If-None-Match names the served
// epoch gets its 304 here (free revalidation for pollers between commits).
func needsBody(w http.ResponseWriter, r *http.Request, snap *Snapshot) bool {
	etag := snap.etag.get(func() string { return epochETag(snap.epoch) })
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && matchesETag(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	return true
}

// marshalLine renders one aggregate body. The shapes hold integers and
// zero-guarded ratios only, so Marshal failing on one is a bug here, not
// an input.
func marshalLine(v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		panic("serve: " + err.Error())
	}
	return append(body, '\n')
}

// Sizes the one buffer a list response is rendered into: the envelope,
// and a row of typical width (72 bytes of punctuation and field names, an
// address, five numbers and a protocol name). A page of wider rows grows
// it by append.
const (
	listEnvelopeBytes = 160
	listRowBytes      = 112
)

// writeList finishes one validated list query: revalidation, then the
// window [offset, offset+limit) of a postings list rendered straight from
// the snapshot's own slices. The bytes are what encoding/json makes of
// the equivalent structs — fields in this order, next_cursor omitted when
// empty, "services":[] for an empty page — and every string written is
// plain ASCII from a closed set (query labels, dotted quads, protocol
// names, base64url cursors), so none needs escaping. offset is echoed as
// asked, not as clamped.
//
// The buffer is the request's own, sized once and left to the collector,
// so requests share nothing but the snapshot. It is not pooled: with a
// sync.Pool a page request leaves ~3 KB of garbage, so little that the
// collector runs every second or two and the heap carries whatever
// start-up garbage the last cycle happened to miss — measured at 105 or
// 195 MB over the same inventory, by chance.
func writeList(w http.ResponseWriter, r *http.Request, snap *Snapshot, query []byte, ids []int32, offset, limit int) {
	if !needsBody(w, r, snap) {
		return
	}
	page := window(ids, offset, limit)
	b := make([]byte, 0, listEnvelopeBytes+listRowBytes*len(page))
	b = append(append(b, `{"query":"`...), query...)
	b = strconv.AppendInt(append(b, `","total":`...), int64(len(ids)), 10)
	b = strconv.AppendInt(append(b, `,"offset":`...), int64(offset), 10)
	b = strconv.AppendInt(append(b, `,"count":`...), int64(len(page)), 10)
	// The cursor resumes the query at the next page on this same snapshot
	// epoch (see decodeCursor). An empty page never carries one: it would
	// point back at itself, and a client following cursors would loop.
	if next := offset + len(page); len(page) > 0 && next < len(ids) {
		b = append(append(append(b, `,"next_cursor":"`...), encodeCursor(snap.epoch, next)...), '"')
	}
	b = append(b, `,"services":[`...)
	for i, id := range page {
		if i > 0 {
			b = append(b, ',')
		}
		v := &snap.services[id]
		b = appendIP(append(b, `{"ip":"`...), v.IP)
		b = strconv.AppendUint(append(b, `","port":`...), uint64(v.Port), 10)
		b = append(append(b, `,"proto":"`...), v.Proto.String()...)
		b = strconv.AppendUint(append(b, `","asn":`...), uint64(v.ASN), 10)
		b = strconv.AppendInt(append(b, `,"first_seen":`...), int64(v.FirstSeen), 10)
		b = strconv.AppendInt(append(b, `,"last_seen":`...), int64(v.LastSeen), 10)
		b = strconv.AppendInt(append(b, `,"stale":`...), int64(v.Stale), 10)
		b = append(b, '}')
	}
	b = append(b, "]}\n"...)
	w.Write(b)
}

// appendIP appends ip in dotted-quad form.
func appendIP(b []byte, ip asndb.IP) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(ip>>shift)), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// pageParams parses ?offset= and ?limit= with bounds. limit caps at
// maxPageLimit so one request's work stays bounded.
func pageParams(r *http.Request) (offset, limit int, err error) {
	q := r.URL.Query()
	offset, limit = 0, defaultPageLimit
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("bad offset %q", v)
		}
	}
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("bad limit %q", v)
		}
	}
	if limit > maxPageLimit {
		limit = maxPageLimit
	}
	return offset, limit, nil
}

// listPage resolves a list query's paging inputs — ?cursor= or
// ?offset=&limit= — against the served snapshot. A false return means
// the error response (bad_page, bad_cursor, or snapshot_rotated) is
// already written.
func (s *Server) listPage(w http.ResponseWriter, r *http.Request, snap *Snapshot) (offset, limit int, ok bool) {
	offset, limit, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadPage, err.Error())
		return 0, 0, false
	}
	q := r.URL.Query()
	token := q.Get("cursor")
	if token == "" {
		return offset, limit, true
	}
	if q.Get("offset") != "" {
		writeError(w, http.StatusBadRequest, errBadPage, "cursor and offset are mutually exclusive")
		return 0, 0, false
	}
	epoch, coff, err := decodeCursor(token)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadCursor, err.Error())
		return 0, 0, false
	}
	if epoch != snap.Epoch() {
		// The inventory rotated under the client's pagination: its
		// offsets no longer name the same rows. 410 with a fresh
		// first-page cursor beats silently splicing two epochs.
		writeErrorEnvelope(w, http.StatusGone, errorJSON{
			Code: errSnapshotRotated,
			Message: fmt.Sprintf("cursor is for epoch %d; the served snapshot is now epoch %d — restart from the attached cursor",
				epoch, snap.Epoch()),
			Cursor: encodeCursor(snap.Epoch(), 0),
		})
		return 0, 0, false
	}
	return coff, limit, true
}

// handleHealthz is the readiness probe. Not the error envelope: health
// checks key on the status field, and "starting"/"draining" are states,
// not request failures. The classic fields keep their exact shape while
// an attached HealthSource (role, shards owned, feed lag, draining)
// extends the document; any non-"ok" status is a 503 with Retry-After.
// See health.go for the merge and the ?format=text probe mode.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed, "GET or HEAD only")
		return
	}
	writeHealth(w, r, s.healthDoc())
}

// handleNotFound is the mux fallback: any path outside the API answers
// the structured envelope instead of the default plain-text 404.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, errNotFound,
		fmt.Sprintf("no such endpoint %q; see /v1/{healthz,stats,ports,host,port,asn,prefix,watch,cluster,metricz,tracez,debugz}", r.URL.Path))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	if !needsBody(w, r, snap) {
		return
	}
	w.Write(snap.statsBody.get(func() []byte {
		st := snap.stats
		return marshalLine(statsJSON{
			Epoch: st.Epoch, Services: st.Services, Hosts: st.Hosts,
			Ports: st.Ports, Prefixes: st.Prefixes, ASNs: st.ASNs,
			Fresh: st.Freshness.Fresh, Stale: st.Freshness.Stale,
			FreshFrac: st.Freshness.FreshFrac(), StaleRate: st.Freshness.StaleRate(),
		})
	}))
}

func (s *Server) handlePorts(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	if !needsBody(w, r, snap) {
		return
	}
	w.Write(snap.portsBody.get(func() []byte {
		out := portsJSON{Total: len(snap.ports), Ports: make([]portCountJSON, len(snap.ports))}
		for i, pc := range snap.ports {
			out.Ports[i] = portCountJSON{Port: pc.Port, Services: pc.Services}
		}
		return marshalLine(out)
	}))
}

func (s *Server) handleHost(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/host/")
	ip, err := asndb.ParseIP(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadIP, fmt.Sprintf("bad ip %q", raw))
		return
	}
	var q [24]byte
	writeList(w, r, snap, appendIP(append(q[:0], "host "...), ip), snap.hostRows(ip), 0, -1)
}

func (s *Server) handlePort(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/port/")
	port, err := strconv.ParseUint(raw, 10, 16)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadPort, fmt.Sprintf("bad port %q", raw))
		return
	}
	offset, limit, ok := s.listPage(w, r, snap)
	if !ok {
		return
	}
	// The canonical spelling, not the raw path segment: the body is a
	// function of the parsed values ("0443" and "443" are one query).
	var q [24]byte
	writeList(w, r, snap, strconv.AppendUint(append(q[:0], "port "...), port, 10), snap.portRows(uint16(port)), offset, limit)
}

func (s *Server) handleASN(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/asn/")
	asn, err := strconv.ParseUint(strings.TrimPrefix(raw, "AS"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadASN, fmt.Sprintf("bad asn %q", raw))
		return
	}
	offset, limit, ok := s.listPage(w, r, snap)
	if !ok {
		return
	}
	var q [24]byte
	writeList(w, r, snap, strconv.AppendUint(append(q[:0], "asn AS"...), asn, 10), snap.asnRows(asndb.ASN(asn)), offset, limit)
}

func (s *Server) handlePrefix(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/prefix/")
	ip, err := asndb.ParseIP(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadIP, fmt.Sprintf("bad prefix address %q", raw))
		return
	}
	offset, limit, ok := s.listPage(w, r, snap)
	if !ok {
		return
	}
	pfx := ip & asndb.Mask(16)
	var q [24]byte
	writeList(w, r, snap, append(appendIP(append(q[:0], "prefix "...), pfx), "/16"...), snap.prefixRows(pfx), offset, limit)
}
