package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
)

// testInventory builds a hand-laid inventory with known structure:
//   - 10.0.x.y hosts in AS 100, 10.1.x.y hosts in AS 200
//   - n services spread over ports 22, 80, 443 round-robin
//   - every third entry stale, every entry seen at `seen`
func testInventory(n, seen int) map[netmodel.Key]*continuous.Entry {
	ports := []uint16{22, 80, 443}
	protos := []features.Protocol{features.ProtocolSSH, features.ProtocolHTTP, features.ProtocolTLS}
	inv := make(map[netmodel.Key]*continuous.Entry, n)
	for i := 0; i < n; i++ {
		var ip asndb.IP
		asn := asndb.ASN(100)
		if i%2 == 0 {
			ip = asndb.MustParseIP("10.0.0.1") + asndb.IP(i)
		} else {
			ip = asndb.MustParseIP("10.1.0.1") + asndb.IP(i)
			asn = 200
		}
		k := netmodel.Key{IP: ip, Port: ports[i%3]}
		e := &continuous.Entry{
			Rec:       dataset.Record{IP: ip, Port: k.Port, Proto: protos[i%3], ASN: asn, TTL: 64},
			FirstSeen: 1, LastSeen: seen,
		}
		if i%3 == 2 {
			e.Stale = 1
		}
		inv[k] = e
	}
	return inv
}

func TestSnapshotIndexes(t *testing.T) {
	const n, epoch = 30, 5
	inv := testInventory(n, epoch)
	snap := NewSnapshot(epoch, inv)

	if snap.Epoch() != epoch || snap.NumServices() != n {
		t.Fatalf("snapshot epoch %d size %d; want %d %d", snap.Epoch(), snap.NumServices(), epoch, n)
	}
	st := snap.Stats()
	if st.Services != n || st.Freshness.Known != n {
		t.Errorf("stats services %d known %d; want %d", st.Services, st.Freshness.Known, n)
	}
	if st.Freshness.Fresh != n {
		t.Errorf("stats fresh %d; want %d (every entry seen at the snapshot epoch)", st.Freshness.Fresh, n)
	}
	if want := n / 3; st.Freshness.Stale != want {
		t.Errorf("stats stale %d; want %d", st.Freshness.Stale, want)
	}
	if st.ASNs != 2 || st.Prefixes != 2 {
		t.Errorf("stats asns %d prefixes %d; want 2 2", st.ASNs, st.Prefixes)
	}

	// Every lookup path must agree with a brute-force scan of the input.
	for _, port := range []uint16{22, 80, 443} {
		want := 0
		for k := range inv {
			if k.Port == port {
				want++
			}
		}
		svcs, total := snap.Port(port, 0, -1)
		if total != want || len(svcs) != want {
			t.Errorf("port %d: total %d len %d; want %d", port, total, len(svcs), want)
		}
		for _, s := range svcs {
			if s.Port != port {
				t.Fatalf("port %d query returned %v:%d", port, s.IP, s.Port)
			}
		}
	}
	for _, asn := range []asndb.ASN{100, 200} {
		want := 0
		for _, e := range inv {
			if e.Rec.ASN == asn {
				want++
			}
		}
		if _, total := snap.ASN(asn, 0, -1); total != want {
			t.Errorf("asn %d: total %d; want %d", asn, total, want)
		}
	}
	pfxSvcs, pfxTotal := snap.Prefix16(asndb.MustParseIP("10.0.123.45"), 0, -1)
	want := 0
	for k := range inv {
		if asndb.SubnetOf(k.IP, 16) == asndb.MustPrefix(asndb.MustParseIP("10.0.0.0"), 16) {
			want++
		}
	}
	if pfxTotal != want || len(pfxSvcs) != want {
		t.Errorf("prefix 10.0/16: total %d; want %d", pfxTotal, want)
	}
	for k := range inv {
		found := false
		for _, s := range snap.Host(k.IP) {
			if s.IP == k.IP && s.Port == k.Port {
				found = true
			}
		}
		if !found {
			t.Fatalf("host %v does not list %v", k.IP, k)
		}
	}

	// The per-port aggregate sums back to the inventory size.
	sum := 0
	for _, pc := range snap.Ports() {
		sum += pc.Services
	}
	if sum != n {
		t.Errorf("ports aggregate sums to %d; want %d", sum, n)
	}
}

func TestSnapshotPagination(t *testing.T) {
	snap := NewSnapshot(3, testInventory(30, 3))
	_, total := snap.Port(80, 0, -1)
	if total == 0 {
		t.Fatal("no services on port 80")
	}

	// Walking pages must reconstruct the full result exactly once.
	var walked []Service
	for off := 0; ; off += 4 {
		page, tot := snap.Port(80, off, 4)
		if tot != total {
			t.Fatalf("total changed mid-walk: %d then %d", total, tot)
		}
		if len(page) == 0 {
			break
		}
		walked = append(walked, page...)
	}
	full, _ := snap.Port(80, 0, -1)
	if len(walked) != len(full) {
		t.Fatalf("pagination walked %d services; want %d", len(walked), len(full))
	}
	for i := range full {
		if walked[i] != full[i] {
			t.Fatalf("page walk diverges at %d: %v != %v", i, walked[i], full[i])
		}
	}

	// Out-of-range and clamped windows stay well-formed.
	if page, _ := snap.Port(80, total+10, 4); len(page) != 0 {
		t.Errorf("offset beyond total returned %d services", len(page))
	}
	if page, _ := snap.Port(80, -5, 2); len(page) != 2 {
		t.Errorf("negative offset returned %d services; want 2", len(page))
	}
}

func TestPublisherMonotonic(t *testing.T) {
	var pub Publisher
	if pub.Current() != nil {
		t.Fatal("fresh publisher holds a snapshot")
	}
	if !pub.Publish(NewSnapshot(3, nil)) {
		t.Fatal("first publish refused")
	}
	if pub.Publish(NewSnapshot(3, nil)) {
		t.Error("same-epoch publish accepted")
	}
	if pub.Publish(NewSnapshot(2, nil)) {
		t.Error("older-epoch publish accepted")
	}
	if !pub.Publish(NewSnapshot(4, nil)) {
		t.Error("newer-epoch publish refused")
	}
	if got := pub.Current().Epoch(); got != 4 {
		t.Errorf("current epoch %d; want 4", got)
	}
}

// get performs one request against the server and decodes the JSON body.
func get(t *testing.T, h http.Handler, path string, hdr map[string]string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var body map[string]any
	if rr.Body.Len() > 0 && rr.Header().Get("Content-Type") == "application/json" {
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, rr.Body.String(), err)
		}
	}
	return rr, body
}

func TestServerEndpoints(t *testing.T) {
	var pub Publisher
	h := NewServer(&pub).Handler()

	// Before the first publish everything but healthz's shape is 503.
	if rr, _ := get(t, h, "/v1/stats", nil); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("stats before publish: %d; want 503", rr.Code)
	}
	if rr, body := get(t, h, "/v1/healthz", nil); rr.Code != http.StatusServiceUnavailable || body["status"] != "starting" {
		t.Fatalf("healthz before publish: %d %v", rr.Code, body)
	}

	const n, epoch = 30, 7
	pub.Publish(NewSnapshot(epoch, testInventory(n, epoch)))

	rr, body := get(t, h, "/v1/healthz", nil)
	if rr.Code != http.StatusOK || body["status"] != "ok" || body["epoch"] != float64(epoch) {
		t.Fatalf("healthz: %d %v", rr.Code, body)
	}
	rr, body = get(t, h, "/v1/stats", nil)
	if rr.Code != http.StatusOK || body["services"] != float64(n) || body["epoch"] != float64(epoch) {
		t.Fatalf("stats: %d %v", rr.Code, body)
	}
	etag := rr.Header().Get("ETag")
	if etag == "" {
		t.Fatal("stats response has no ETag")
	}

	// Conditional revalidation: the epoch ETag turns polls into 304s.
	if rr, _ := get(t, h, "/v1/stats", map[string]string{"If-None-Match": etag}); rr.Code != http.StatusNotModified {
		t.Errorf("If-None-Match with current ETag: %d; want 304", rr.Code)
	}
	if rr, _ := get(t, h, "/v1/stats", map[string]string{"If-None-Match": `"gps-epoch-1"`}); rr.Code != http.StatusOK {
		t.Errorf("If-None-Match with stale ETag: %d; want 200", rr.Code)
	}

	// A snapshot swap changes the ETag and the answers.
	pub.Publish(NewSnapshot(epoch+1, testInventory(n+3, epoch+1)))
	rr, body = get(t, h, "/v1/stats", map[string]string{"If-None-Match": etag})
	if rr.Code != http.StatusOK || body["services"] != float64(n+3) {
		t.Fatalf("stats after swap: %d %v", rr.Code, body)
	}

	rr, body = get(t, h, "/v1/port/80?limit=4", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("port query: %d", rr.Code)
	}
	if body["count"] != float64(4) || body["total"].(float64) <= 4 {
		t.Errorf("port page: count %v total %v", body["count"], body["total"])
	}
	if _, body = get(t, h, "/v1/asn/200", nil); body["total"].(float64) == 0 {
		t.Error("asn query found nothing")
	}
	if _, body = get(t, h, "/v1/asn/AS200", nil); body["total"].(float64) == 0 {
		t.Error("AS-prefixed asn query found nothing")
	}
	if _, body = get(t, h, "/v1/prefix/10.1.99.99", nil); body["total"].(float64) == 0 {
		t.Error("prefix query found nothing")
	}
	if _, body = get(t, h, "/v1/host/10.0.0.1", nil); body["total"].(float64) == 0 {
		t.Error("host query found nothing")
	}
	if _, body = get(t, h, "/v1/ports", nil); body["total"].(float64) != 3 {
		t.Errorf("ports aggregate total %v; want 3", body["total"])
	}

	// A non-canonical spelling of the same query must serve the exact
	// bytes of the canonical one (the body is a pure function of the
	// parsed values, never of the raw path).
	canon, _ := get(t, h, "/v1/port/80?limit=4", nil)
	padded, _ := get(t, h, "/v1/port/0080?limit=4", nil)
	if canon.Body.String() != padded.Body.String() {
		t.Errorf("port 80 and 0080 serve different bytes:\n%s\n%s", canon.Body.String(), padded.Body.String())
	}

	// A malformed URL is a 400 even when the client presents the current
	// ETag: preconditions only apply to requests that could 200.
	cur := canon.Header().Get("ETag")
	if rr, _ := get(t, h, "/v1/port/garbage", map[string]string{"If-None-Match": cur}); rr.Code != http.StatusBadRequest {
		t.Errorf("bad port with current ETag: %d; want 400", rr.Code)
	}

	// Malformed inputs are 400s, wrong methods 405s, unknown paths 404s.
	for _, path := range []string{
		"/v1/host/not-an-ip", "/v1/port/99999", "/v1/asn/x",
		"/v1/prefix/300.1.2.3", "/v1/port/80?offset=-1", "/v1/port/80?limit=x",
	} {
		if rr, _ := get(t, h, path, nil); rr.Code != http.StatusBadRequest {
			t.Errorf("GET %s: %d; want 400", path, rr.Code)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST stats: %d; want 405", rec.Code)
	}
	if rr, _ := get(t, h, "/v1/nope", nil); rr.Code != http.StatusNotFound {
		t.Errorf("unknown path: %d; want 404", rr.Code)
	}
}

// TestServerDeterministicBodies pins the serving contract the distributed
// CI gate relies on: two servers over equal inventories — whatever
// snapshots their publishers held before — serve byte-identical list
// bodies.
func TestServerDeterministicBodies(t *testing.T) {
	inv := testInventory(40, 9)
	var pubA, pubB Publisher
	hA, hB := NewServer(&pubA).Handler(), NewServer(&pubB).Handler()
	pubA.Publish(NewSnapshot(9, inv))
	pubB.Publish(NewSnapshot(5, testInventory(7, 5))) // B served other data first
	pubB.Publish(NewSnapshot(9, inv))

	for _, path := range []string{
		"/v1/port/80?limit=10", "/v1/port/80?offset=4&limit=10",
		"/v1/asn/100", "/v1/prefix/10.0.0.0", "/v1/host/10.0.0.1", "/v1/ports",
	} {
		rrA, _ := get(t, hA, path, nil)
		rrB, _ := get(t, hB, path, nil)
		// Twice against A: /v1/ports renders once per snapshot, and the
		// second answer is the kept body.
		rrA2, _ := get(t, hA, path, nil)
		if rrA.Body.String() != rrB.Body.String() {
			t.Errorf("GET %s: servers disagree:\n%s\n%s", path, rrA.Body.String(), rrB.Body.String())
		}
		if rrA.Body.String() != rrA2.Body.String() {
			t.Errorf("GET %s: second body differs from first render", path)
		}
	}
}

// TestMatchesETag pins If-None-Match comparison to RFC 9110 §13.1.2's
// weak comparison: a weak validator (`W/"..."`) — the form caches and
// proxies hand back after weakening a response in transit — must match
// its strong original, lists must match any member, and `*` matches
// everything. Before the fix a client echoing W/"gps-epoch-7" was denied
// its 304 forever.
func TestMatchesETag(t *testing.T) {
	etag := epochETag(7) // `"gps-epoch-7"`
	cases := []struct {
		name        string
		ifNoneMatch string
		want        bool
	}{
		{"strong match", `"gps-epoch-7"`, true},
		{"weak validator matches strong", `W/"gps-epoch-7"`, true},
		{"star matches anything", `*`, true},
		{"star with spaces", `  *  `, true},
		{"stale strong", `"gps-epoch-6"`, false},
		{"stale weak", `W/"gps-epoch-6"`, false},
		{"list with match", `"gps-epoch-5", "gps-epoch-7"`, true},
		{"list with weak match", `"gps-epoch-5", W/"gps-epoch-7"`, true},
		{"list without match", `"gps-epoch-5", W/"gps-epoch-6"`, false},
		{"unquoted is not a validator", `gps-epoch-7`, false},
		{"lowercase w is not a weak prefix", `w/"gps-epoch-7"`, false},
		{"empty candidate", ``, false},
	}
	for _, c := range cases {
		if got := matchesETag(c.ifNoneMatch, etag); got != c.want {
			t.Errorf("%s: matchesETag(%q, %q) = %v; want %v", c.name, c.ifNoneMatch, etag, got, c.want)
		}
	}
}

// TestServerWeakETagRevalidation drives the weak-comparison fix through
// the HTTP layer: a proxy-weakened validator earns the 304.
func TestServerWeakETagRevalidation(t *testing.T) {
	var pub Publisher
	h := NewServer(&pub).Handler()
	pub.Publish(NewSnapshot(7, testInventory(10, 7)))

	rr, _ := get(t, h, "/v1/stats", map[string]string{"If-None-Match": `W/"gps-epoch-7"`})
	if rr.Code != http.StatusNotModified {
		t.Errorf("weak If-None-Match: %d; want 304", rr.Code)
	}
	if rr, _ := get(t, h, "/v1/stats", map[string]string{"If-None-Match": `W/"gps-epoch-6"`}); rr.Code != http.StatusOK {
		t.Errorf("stale weak If-None-Match: %d; want 200", rr.Code)
	}
	if rr, _ := get(t, h, "/v1/stats", map[string]string{"If-None-Match": `*`}); rr.Code != http.StatusNotModified {
		t.Errorf("If-None-Match *: %d; want 304", rr.Code)
	}
}

// request is get for arbitrary methods.
func request(t *testing.T, h http.Handler, method, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var body map[string]any
	if rr.Body.Len() > 0 && rr.Header().Get("Content-Type") == "application/json" {
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rr.Body.String(), err)
		}
	}
	return rr, body
}

// errEnvelope digs the error object out of a response body, failing the
// test if the envelope shape is wrong.
func errEnvelope(t *testing.T, method, path string, body map[string]any) map[string]any {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("%s %s: no error envelope in %v", method, path, body)
	}
	if _, ok := e["code"].(string); !ok {
		t.Fatalf("%s %s: envelope has no code: %v", method, path, e)
	}
	if msg, ok := e["message"].(string); !ok || msg == "" {
		t.Fatalf("%s %s: envelope has no message: %v", method, path, e)
	}
	return e
}

// TestErrorEnvelope pins the structured error contract across every
// failure class: one JSON shape, machine-readable stable codes, and the
// status-specific extras (Retry-After on 503, a fresh cursor on 410).
func TestErrorEnvelope(t *testing.T) {
	var empty Publisher
	cold := NewServer(&empty).Handler() // nothing published: 503 land

	var pub Publisher
	pub.Publish(NewSnapshot(7, testInventory(30, 7)))
	plain := NewServer(&pub).Handler() // no feed: /v1/watch is 404

	feed := NewFeed(4)
	defer feed.Close()
	watch := NewServer(&pub).EnableWatch(feed).Handler()

	cases := []struct {
		name     string
		h        http.Handler
		method   string
		path     string
		wantCode int
		wantErr  string
	}{
		{"stats before publish", cold, "GET", "/v1/stats", 503, "no_snapshot"},
		{"list before publish", cold, "GET", "/v1/port/80", 503, "no_snapshot"},
		{"bad ip", plain, "GET", "/v1/host/not-an-ip", 400, "bad_ip"},
		{"bad prefix ip", plain, "GET", "/v1/prefix/300.1.2.3", 400, "bad_ip"},
		{"bad port text", plain, "GET", "/v1/port/garbage", 400, "bad_port"},
		{"bad port range", plain, "GET", "/v1/port/99999", 400, "bad_port"},
		{"bad asn", plain, "GET", "/v1/asn/x", 400, "bad_asn"},
		{"bad offset", plain, "GET", "/v1/port/80?offset=-1", 400, "bad_page"},
		{"bad limit", plain, "GET", "/v1/port/80?limit=x", 400, "bad_page"},
		{"cursor with offset", plain, "GET", "/v1/port/80?cursor=abc&offset=2", 400, "bad_page"},
		{"undecodable cursor", plain, "GET", "/v1/port/80?cursor=%21%21%21", 400, "bad_cursor"},
		{"unknown path", plain, "GET", "/v1/nope", 404, "not_found"},
		{"root path", plain, "GET", "/", 404, "not_found"},
		{"watch without feed", plain, "GET", "/v1/watch", 404, "watch_unavailable"},
		{"bad since", watch, "GET", "/v1/watch?since=x", 400, "bad_since"},
		{"post stats", plain, "POST", "/v1/stats", 405, "method_not_allowed"},
		{"post list", plain, "POST", "/v1/port/80", 405, "method_not_allowed"},
		{"post watch", watch, "POST", "/v1/watch", 405, "method_not_allowed"},
	}
	for _, c := range cases {
		rr, body := request(t, c.h, c.method, c.path)
		if rr.Code != c.wantCode {
			t.Errorf("%s: %d; want %d", c.name, rr.Code, c.wantCode)
			continue
		}
		e := errEnvelope(t, c.method, c.path, body)
		if e["code"] != c.wantErr {
			t.Errorf("%s: code %v; want %q", c.name, e["code"], c.wantErr)
		}
		if c.wantCode == 503 && rr.Header().Get("Retry-After") == "" {
			t.Errorf("%s: 503 without Retry-After", c.name)
		}
	}

	// healthz keeps its probe-friendly body shape rather than the
	// envelope, but matches the 503 Retry-After behavior.
	rr, body := request(t, cold, "GET", "/v1/healthz")
	if rr.Code != 503 || body["status"] != "starting" || rr.Header().Get("Retry-After") == "" {
		t.Errorf("cold healthz: %d %v Retry-After %q", rr.Code, body, rr.Header().Get("Retry-After"))
	}
}

// TestCursorPagination walks a list query page by page on the cursor and
// pins the rotation contract: a cursor outlives its epoch as a 410 with
// a fresh restart cursor, never as silently spliced pages.
func TestCursorPagination(t *testing.T) {
	var pub Publisher
	h := NewServer(&pub).Handler()
	pub.Publish(NewSnapshot(7, testInventory(30, 7)))

	services := func(body map[string]any) []any {
		svcs, _ := body["services"].([]any)
		return svcs
	}

	// The full result in one shot is the oracle.
	_, full := get(t, h, "/v1/port/80?limit=1000", nil)
	total := int(full["total"].(float64))
	if total < 8 {
		t.Fatalf("need several pages; total %d", total)
	}

	var walked []any
	path := "/v1/port/80?limit=4"
	for hops := 0; ; hops++ {
		if hops > total {
			t.Fatal("cursor walk does not terminate")
		}
		rr, body := get(t, h, path, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rr.Code)
		}
		walked = append(walked, services(body)...)
		next, _ := body["next_cursor"].(string)
		if next == "" {
			break
		}
		path = "/v1/port/80?cursor=" + next
	}
	if len(walked) != total {
		t.Fatalf("cursor walk collected %d services; want %d", len(walked), total)
	}
	for i, s := range services(full) {
		a, _ := json.Marshal(s)
		b, _ := json.Marshal(walked[i])
		if string(a) != string(b) {
			t.Fatalf("cursor walk diverges from offset walk at %d: %s != %s", i, a, b)
		}
	}

	// The last page carries no cursor; neither does an exhaustive one.
	if _, body := get(t, h, "/v1/port/80?limit=1000", nil); body["next_cursor"] != nil {
		t.Error("exhaustive page still carries next_cursor")
	}

	// Same query by cursor and by offset serve byte-identical pages (the
	// body depends on the resolved window, not the spelling).
	byCursor, _ := get(t, h, "/v1/port/80?cursor="+encodeCursor(7, 4), nil)
	byOffset, _ := get(t, h, "/v1/port/80?offset=4", nil)
	if byCursor.Body.String() != byOffset.Body.String() {
		t.Errorf("cursor and offset spellings serve different bytes:\n%s\n%s",
			byCursor.Body.String(), byOffset.Body.String())
	}

	// limit=0 is a legal "totals only" query, and its empty page carries no
	// cursor: one would resume at the same offset, so a client following
	// cursors would fetch the same empty page forever.
	_, body0 := get(t, h, "/v1/port/80?limit=0", nil)
	if body0["count"] != float64(0) || body0["total"] != float64(total) {
		t.Errorf("limit=0: count %v total %v; want 0 %d", body0["count"], body0["total"], total)
	}
	if body0["next_cursor"] != nil {
		t.Errorf("limit=0: empty page carries next_cursor %v, which does not advance", body0["next_cursor"])
	}

	// Rotation: the snapshot swaps, the old cursor answers 410 with a
	// fresh first-page cursor for the new epoch.
	stale := encodeCursor(7, 4)
	pub.Publish(NewSnapshot(8, testInventory(33, 8)))
	rr, body := get(t, h, "/v1/port/80?cursor="+stale, nil)
	if rr.Code != http.StatusGone {
		t.Fatalf("stale cursor: %d; want 410", rr.Code)
	}
	e := errEnvelope(t, "GET", "stale cursor", body)
	if e["code"] != "snapshot_rotated" {
		t.Fatalf("stale cursor code %v", e["code"])
	}
	fresh, _ := e["cursor"].(string)
	if fresh == "" {
		t.Fatal("410 carries no restart cursor")
	}
	if rr, _ := get(t, h, "/v1/port/80?cursor="+fresh, nil); rr.Code != http.StatusOK {
		t.Fatalf("restart cursor: %d; want 200", rr.Code)
	}
}
