package serve

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"time"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/shard"
)

// GET /v1/watch streams the change feed as newline-delimited JSON: one
// event object per line, pushed as epochs commit, until the client
// disconnects or the feed closes. ?since=EPOCH resumes after an epoch
// the client already holds; omitted (or any epoch outside the feed's
// retained history) the stream opens with a full snapshot event, then
// continues with deltas. The event entries carry the numeric protocol
// and the TTL — unlike the human-facing list endpoints, this is a
// machine feed, and a consumer accumulating events must be able to
// reconstruct the origin inventory exactly (WatchEvent.ApplyTo does).

// watchSnapshotJSON and watchDeltaJSON are the two event lines, built
// from the exported WatchEntry/WatchKey the consumer decodes into
// (watchclient.go).
type watchSnapshotJSON struct {
	Event    string       `json:"event"` // "snapshot"
	Epoch    int          `json:"epoch"`
	Services []WatchEntry `json:"services"`
}

type watchDeltaJSON struct {
	Event     string       `json:"event"` // "delta"
	BaseEpoch int          `json:"base_epoch"`
	Epoch     int          `json:"epoch"`
	Adds      []WatchEntry `json:"adds"`
	Updates   []WatchEntry `json:"updates"`
	Removes   []WatchKey   `json:"removes"`
}

func toWatchEntry(k netmodel.Key, e *continuous.Entry) WatchEntry {
	return WatchEntry{
		IP: k.IP.String(), Port: k.Port,
		Proto: uint8(e.Rec.Proto), ASN: uint32(e.Rec.ASN), TTL: e.Rec.TTL,
		FirstSeen: e.FirstSeen, LastSeen: e.LastSeen, Stale: e.Stale,
	}
}

func toWatchDelta(d *shard.Delta) watchDeltaJSON {
	out := watchDeltaJSON{
		Event: "delta", BaseEpoch: d.BaseEpoch, Epoch: d.Epoch,
		Adds:    make([]WatchEntry, 0, len(d.Adds)),
		Updates: make([]WatchEntry, 0, len(d.Updates)),
		Removes: make([]WatchKey, 0, len(d.Removes)),
	}
	for _, a := range d.Adds {
		out.Adds = append(out.Adds, toWatchEntry(a.Key, &a.Entry))
	}
	for _, u := range d.Updates {
		out.Updates = append(out.Updates, toWatchEntry(u.Key, &u.Entry))
	}
	for _, k := range d.Removes {
		out.Removes = append(out.Removes, WatchKey{IP: k.IP.String(), Port: k.Port})
	}
	return out
}

func toWatchSnapshot(epoch int, inv map[netmodel.Key]*continuous.Entry) watchSnapshotJSON {
	keys := make([]netmodel.Key, 0, len(inv))
	for k := range inv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].IP != keys[j].IP {
			return keys[i].IP < keys[j].IP
		}
		return keys[i].Port < keys[j].Port
	})
	out := watchSnapshotJSON{Event: "snapshot", Epoch: epoch,
		Services: make([]WatchEntry, 0, len(inv))}
	for _, k := range keys {
		out.Services = append(out.Services, toWatchEntry(k, inv[k]))
	}
	return out
}

// watchWriteTimeout bounds one event line's write+flush. A consumer that
// cannot drain an epoch's delta within it is disconnected (it can
// resume with ?since=). Also the per-write deadline extension that keeps
// the HTTP server's WriteTimeout — sized for request/response bodies —
// from killing an arbitrarily long-lived stream.
const watchWriteTimeout = 30 * time.Second

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed, "GET only")
		return
	}
	if s.feed == nil {
		writeError(w, http.StatusNotFound, errWatchUnavailable,
			"this server runs without a change feed; /v1/watch is served by daemons and replicas, not -serve-file")
		return
	}
	since := -1
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, errBadSince,
				"bad since "+strconv.Quote(v)+"; want an epoch number")
			return
		}
		since = n
	}

	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc.Flush()

	watchSessions.Add(1)
	defer watchSessions.Add(-1)

	writeLine := func(v any) bool {
		body, err := json.Marshal(v)
		if err != nil {
			return false
		}
		rc.SetWriteDeadline(time.Now().Add(watchWriteTimeout))
		if _, err := w.Write(append(body, '\n')); err != nil {
			return false
		}
		return rc.Flush() == nil
	}

	// The session mirrors a feed replica's: deltas while the client's
	// epoch is in history, a full snapshot when it is not, Wait between
	// commits. r.Context() is done when the client disconnects.
	cancel := r.Context().Done()
	cur := since
	for {
		head := s.feed.Head()
		if head < 0 || cur == head {
			if !s.feed.Wait(head, cancel) {
				return // feed closed: clean end of stream
			}
			select {
			case <-cancel:
				return
			default:
			}
			continue
		}
		if d, ok := s.feed.DeltaAt(cur); ok {
			if !writeLine(toWatchDelta(d)) {
				return
			}
			watchEventsSent.Inc()
			cur = d.Epoch
			continue
		}
		epoch, inv := s.feed.SnapshotInventory()
		if !writeLine(toWatchSnapshot(epoch, inv)) {
			return
		}
		watchSnapshotsSent.Inc()
		cur = epoch
	}
}

// ipKey parses a watch event's textual IP back into an inventory key.
func ipKey(ip string, port uint16) (netmodel.Key, error) {
	parsed, err := asndb.ParseIP(ip)
	if err != nil {
		return netmodel.Key{}, err
	}
	return netmodel.Key{IP: parsed, Port: port}, nil
}
