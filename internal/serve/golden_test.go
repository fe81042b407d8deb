package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/trace"
)

// goldenEpoch is the epoch the golden snapshot is served at; it is bound
// into every ETag and cursor under testdata/golden/v1.
const goldenEpoch = 7

// goldenInventory is the fixed inventory behind testdata/golden/v1: a
// pure function of a seeded math/rand sequence (frozen by the Go 1
// promise). Four /16s in four ASes, port 80 on more than maxPageLimit
// hosts so the limit clamp shows, multi-service hosts, every protocol
// including out-of-range ("unknown"), a 32-bit ASN, and mixed
// observation histories.
func goldenInventory() map[netmodel.Key]*continuous.Entry {
	rng := rand.New(rand.NewSource(14))
	bases := []asndb.IP{
		asndb.MustParseIP("10.0.0.0"), asndb.MustParseIP("10.1.0.0"),
		asndb.MustParseIP("172.16.0.0"), asndb.MustParseIP("192.168.0.0"),
	}
	asns := []asndb.ASN{64500, 64501, 7018, 4294967295}
	otherPorts := []uint16{22, 443, 7547, 8080, 65535}
	inv := make(map[netmodel.Key]*continuous.Entry)
	add := func(ip asndb.IP, port uint16, asn asndb.ASN) {
		first := rng.Intn(goldenEpoch)
		inv[netmodel.Key{IP: ip, Port: port}] = &continuous.Entry{
			Rec: dataset.Record{
				IP: ip, Port: port, ASN: asn, TTL: 64,
				Proto: features.Protocol(rng.Intn(features.NumProtocols + 3)),
			},
			FirstSeen: first,
			LastSeen:  first + rng.Intn(goldenEpoch+1-first),
			Stale:     rng.Intn(3),
		}
	}
	for i := 0; i < 1500; i++ {
		net := rng.Intn(len(bases))
		ip := bases[net] + asndb.IP(rng.Intn(1<<12))
		port := uint16(80)
		if rng.Intn(4) == 0 {
			port = otherPorts[rng.Intn(len(otherPorts))]
		}
		add(ip, port, asns[net])
		if i%10 == 0 { // a second and third service on the same host
			add(ip, otherPorts[i/10%len(otherPorts)], asns[net])
			add(ip, 8443, asns[net])
		}
	}
	return inv
}

// goldenRequest is one line of testdata/golden/v1/index.tsv: a request
// path, the ETag the parent commit's handler answered with, and the file
// holding the body it served. Paths that are one query under two
// spellings share a file.
type goldenRequest struct{ path, etag, file string }

func readGoldenIndex(t *testing.T) []goldenRequest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "v1", "index.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []goldenRequest
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("index.tsv: malformed line %q", line)
		}
		reqs = append(reqs, goldenRequest{f[0], f[1], f[2]})
	}
	return reqs
}

// TestGoldenV1 pins the /v1 wire contract bit for bit. The bodies and
// ETags under testdata/golden/v1 were written by the handler as it stood
// before list pages were rendered in place (query cache, page copy,
// mirror structs, reflective json.Marshal) over goldenInventory: every
// endpoint, first / middle / last page, an offset past the end, the limit
// clamp, a host with no services, padded and AS-prefixed spellings, and
// cursor walks followed to exhaustion. A mismatch means a response
// changed on the wire, not that a golden needs refreshing. limit=0 is the
// one request left out: its body changed on purpose (see
// TestCursorPagination).
func TestGoldenV1(t *testing.T) {
	var pub Publisher
	pub.Publish(NewSnapshot(goldenEpoch, goldenInventory()))
	h := NewServer(&pub).Handler()

	reqs := readGoldenIndex(t)
	if len(reqs) < 30 {
		t.Fatalf("index.tsv lists %d requests; the golden set is larger", len(reqs))
	}
	for _, g := range reqs {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", "v1", g.file))
		if err != nil {
			t.Fatal(err)
		}
		// Twice: the second answer of an aggregate comes from the
		// snapshot's memo, the first renders it.
		for pass := 0; pass < 2; pass++ {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, g.path, nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("GET %s: %d", g.path, rr.Code)
			}
			if got := rr.Header().Get("ETag"); got != g.etag {
				t.Errorf("GET %s: ETag %s; golden %s", g.path, got, g.etag)
			}
			if got := rr.Header().Get("Content-Type"); got != "application/json" {
				t.Errorf("GET %s: Content-Type %q", g.path, got)
			}
			if got := rr.Body.Bytes(); string(got) != string(want) {
				t.Errorf("GET %s (pass %d): body differs from golden %s:\n got %.200s\nwant %.200s",
					g.path, pass, g.file, got, want)
			}
		}
	}
}

// The list shapes as encoding/json used to render them: the reference
// the in-place renderer is held to.

type serviceJSON struct {
	IP        string `json:"ip"`
	Port      uint16 `json:"port"`
	Proto     string `json:"proto"`
	ASN       uint32 `json:"asn"`
	FirstSeen int    `json:"first_seen"`
	LastSeen  int    `json:"last_seen"`
	Stale     int    `json:"stale"`
}

type listJSON struct {
	Query      string        `json:"query"`
	Total      int           `json:"total"`
	Offset     int           `json:"offset"`
	Count      int           `json:"count"`
	NextCursor string        `json:"next_cursor,omitempty"`
	Services   []serviceJSON `json:"services"`
}

// referenceList is the reference encoder: page copy, mirror structs,
// reflective marshal.
func referenceList(t *testing.T, snap *Snapshot, query string, ids []int32, offset, limit int) []byte {
	t.Helper()
	svcs, total := snap.page(ids, offset, limit)
	out := listJSON{Query: query, Total: total, Offset: offset, Count: len(svcs), Services: make([]serviceJSON, len(svcs))}
	if len(svcs) > 0 && offset+len(svcs) < total {
		out.NextCursor = encodeCursor(snap.Epoch(), offset+len(svcs))
	}
	for i, v := range svcs {
		out.Services[i] = serviceJSON{
			IP: v.IP.String(), Port: v.Port,
			Proto: v.Proto.String(), ASN: uint32(v.ASN),
			FirstSeen: v.FirstSeen, LastSeen: v.LastSeen, Stale: v.Stale,
		}
	}
	body, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// TestListRenderMatchesEncodingJSON is the renderer's property test:
// over random windows of every postings list of the snapshot — every
// host, port, ASN and /16 — writeList produces exactly the bytes
// encoding/json makes of the reference structs.
func TestListRenderMatchesEncodingJSON(t *testing.T) {
	snap := NewSnapshot(goldenEpoch, goldenInventory())
	rng := rand.New(rand.NewSource(1))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	lists := 0
	check := func(query string, ids []int32) {
		lists++
		for trial := 0; trial < 4; trial++ {
			offset := rng.Intn(len(ids) + 3)
			limit := rng.Intn(len(ids)+3) - 1 // -1 is "the rest"
			rr := httptest.NewRecorder()
			writeList(rr, req, snap, []byte(query), ids, offset, limit)
			want := referenceList(t, snap, query, ids, offset, limit)
			if got := rr.Body.Bytes(); string(got) != string(want) {
				t.Fatalf("%s offset=%d limit=%d:\n got %s\nwant %s", query, offset, limit, got, want)
			}
		}
	}
	for i, ip := range snap.byIP.keys {
		check("host "+asndb.IP(ip).String(), snap.byIP.group(i))
	}
	for i, port := range snap.byPort.keys {
		check(fmt.Sprintf("port %d", port), snap.byPort.group(i))
	}
	for i, asn := range snap.byASN.keys {
		check(fmt.Sprintf("asn AS%d", asn), snap.byASN.group(i))
	}
	for i, pfx := range snap.byPrefix.keys {
		check("prefix "+asndb.Subnet16(asndb.IP(pfx)), snap.byPrefix.group(i))
	}
	check("port 1", nil) // a query that matches nothing
	if lists < 1000 {
		t.Fatalf("walked %d postings lists; the golden inventory has more", lists)
	}
}

// TestRequestsLeaveFlightRecorderAlone pins what the flight recorder is
// for — epochs, migrations and replica applies — against query traffic.
// With one epoch trace finished and another in flight, thousands of
// requests later the logger still joins lines to the epoch in flight and
// the finished epoch is still there to pull up. A root span per request
// failed both: the first request took the current-trace slot and zeroed
// it on finishing, and a ring's worth of requests evicted the epoch.
func TestRequestsLeaveFlightRecorderAlone(t *testing.T) {
	var pub Publisher
	pub.Publish(NewSnapshot(1, testInventory(30, 1)))
	h := NewServer(&pub).Handler()

	finished := trace.StartSpan(trace.SpanContext{}, "epoch")
	finished.Finish()
	inFlight := trace.StartSpan(trace.SpanContext{}, "epoch")
	defer inFlight.Finish()

	paths := []string{"/v1/stats", "/v1/ports", "/v1/host/10.0.0.1", "/v1/port/80?limit=4", "/v1/port/x", "/v1/nope"}
	for i := 0; i < 5000; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil))
	}

	if got, want := trace.Default.CurrentTrace(), inFlight.Context().TraceID; got != want {
		t.Errorf("CurrentTrace() = %x after 5000 requests; want the epoch in flight, %x", got, want)
	}
	if spans := trace.Default.TraceSpans(finished.Context().TraceID); len(spans) == 0 {
		t.Error("the finished epoch trace was evicted from the flight recorder by request traffic")
	}
}
