package serve

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/netmodel"
)

var updateWatchGolden = flag.Bool("update-watch-golden", false,
	"rewrite testdata/golden/watch from this tree's /v1/watch streams (only from a commit whose streams are the reference)")

// watchGoldenInventories is the fixed feed behind testdata/golden/watch:
// epochs 0..3 of a TestParams world under DefaultChurn, thinned to one
// host in 160 so a snapshot line stays around 10 KB. An epoch's
// inventory holds every service of that epoch's universe that has been
// "discovered" by then (a quarter of the keys per epoch, so deltas carry
// adds), each re-observed that epoch (updates), plus the services churn
// removed since the previous epoch, kept one epoch with a stale mark
// before they drop (updates, then removes).
func watchGoldenInventories() []map[netmodel.Key]*continuous.Entry {
	u := netmodel.Generate(netmodel.TestParams(19))
	var invs []map[netmodel.Key]*continuous.Entry
	for epoch := 0; epoch <= 3; epoch++ {
		if epoch > 0 {
			u = netmodel.Churn(u, netmodel.DefaultChurn(int64(19+epoch)))
		}
		inv := make(map[netmodel.Key]*continuous.Entry)
		for _, h := range u.Hosts() {
			if h.IP%160 != 0 {
				continue
			}
			for _, svc := range h.Services() {
				port := svc.Port
				found := int(uint32(h.IP)/160+uint32(port)) % 4
				if found > epoch {
					continue
				}
				inv[netmodel.Key{IP: h.IP, Port: port}] = &continuous.Entry{
					Rec:       dataset.Record{IP: h.IP, Port: port, Proto: svc.Proto, ASN: h.ASN, TTL: svc.TTL},
					FirstSeen: found, LastSeen: epoch,
				}
			}
		}
		if epoch > 0 {
			for k, e := range invs[epoch-1] {
				if _, alive := inv[k]; !alive && e.Stale == 0 {
					lost := *e
					lost.Stale = 1
					inv[k] = &lost
				}
			}
		}
		invs = append(invs, inv)
	}
	return invs
}

// readWatchLines reads a /v1/watch stream line by line until the event
// that lands on epoch until, returning the raw bytes read.
func readWatchLines(t *testing.T, br *bufio.Reader, until int) []byte {
	t.Helper()
	var raw []byte
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("watch stream ended before epoch %d: %v", until, err)
		}
		raw = append(raw, line...)
		var ev struct {
			Epoch int `json:"epoch"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("undecodable watch line: %v", err)
		}
		if ev.Epoch == until {
			return raw
		}
	}
}

// TestGoldenWatch pins the NDJSON change feed byte for byte. The streams
// under testdata/golden/watch were written by /v1/watch as it stood when
// it ran its own session loop over the feed's decoded deltas and
// retained map: a live session with no since (a snapshot at epoch 1,
// then a delta per commit), a session resuming from since=1 after epoch
// 3 (deltas only), and a session whose since=0 has aged out of the
// 2-deep history (one snapshot at the head). A mismatch means an event
// changed on the wire, not that a golden needs refreshing.
func TestGoldenWatch(t *testing.T) {
	invs := watchGoldenInventories()
	feed := NewFeed(2)
	defer feed.Close()
	var pub Publisher
	commit := func(epoch int) {
		feed.Commit(epoch, invs[epoch])
		pub.Publish(NewSnapshot(epoch, invs[epoch]))
	}
	commit(0)
	commit(1)
	ts := httptest.NewServer(NewServer(&pub).EnableWatch(feed).Handler())
	defer ts.Close()

	open := func(query string) (*bufio.Reader, func()) {
		resp, err := http.Get(ts.URL + "/v1/watch" + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/watch%s: %d", query, resp.StatusCode)
		}
		return bufio.NewReaderSize(resp.Body, 1<<16), func() { resp.Body.Close() }
	}

	// The live session reads each event before the next commit, so what
	// it is sent does not depend on scheduling.
	live, closeLive := open("")
	got := map[string][]byte{"live.ndjson": readWatchLines(t, live, 1)}
	for epoch := 2; epoch <= 3; epoch++ {
		commit(epoch)
		got["live.ndjson"] = append(got["live.ndjson"], readWatchLines(t, live, epoch)...)
	}
	closeLive()
	for file, query := range map[string]string{"since1.ndjson": "?since=1", "agedout.ndjson": "?since=0"} {
		br, closeBody := open(query)
		got[file] = readWatchLines(t, br, 3)
		closeBody()
	}

	dir := filepath.Join("testdata", "golden", "watch")
	for file, body := range got {
		path := filepath.Join(dir, file)
		if *updateWatchGolden {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(want) {
			t.Errorf("%s: stream differs from golden (%d vs %d bytes)%s", file, len(body), len(want), firstDiff(body, want))
		}
	}
}

// firstDiff names the first line where two NDJSON streams part.
func firstDiff(got, want []byte) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			lo := max(0, i-60)
			return fmt.Sprintf("\n got ...%s\nwant ...%s", got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
		}
	}
	return ""
}
