package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/shard"
	"gps/internal/shard/transport"
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
	out := watchSnapshotJSON{Event: "snapshot", Epoch: epoch,
		Services: make([]WatchEntry, 0, len(inv))}
	for _, p := range netmodel.SortedPairs(inv) {
		out.Services = append(out.Services, toWatchEntry(p.Key, p.Value))
	}
	return out
}

// watchLine renders one feed event — the GPSE or GPSV bytes every
// subscriber is served from — as its NDJSON line.
func watchLine(ev transport.FeedEvent) ([]byte, error) {
	var doc any
	if ev.Kind == transport.FeedSnapshot {
		inv, err := shard.ReadInventory(bytes.NewReader(ev.Payload))
		if err != nil {
			return nil, err
		}
		doc = toWatchSnapshot(ev.Epoch, inv)
	} else {
		d, err := shard.ReadDelta(bytes.NewReader(ev.Payload))
		if err != nil {
			return nil, err
		}
		doc = toWatchDelta(d)
	}
	body, err := json.Marshal(doc)
	return append(body, '\n'), err
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
			"this server runs without a change feed; /v1/watch is served by daemons and replicas, not gpsd serve FILE")
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

	// The session is the one every feed subscriber gets; only the
	// rendering is this endpoint's. It ends, and with it the response
	// body, when the feed closes, the client disconnects (r.Context() is
	// done) or a line cannot be delivered.
	transport.FeedSession(r.Context(), s.feed, since, func(ev transport.FeedEvent) error {
		line, err := watchLine(ev)
		if err != nil {
			return err
		}
		rc.SetWriteDeadline(time.Now().Add(watchWriteTimeout))
		if _, err := w.Write(line); err != nil {
			return err
		}
		if err := rc.Flush(); err != nil {
			return err
		}
		if ev.Kind == transport.FeedSnapshot {
			watchSnapshotsSent.Inc()
		} else {
			watchEventsSent.Inc()
		}
		return nil
	})
}

// ipKey parses a watch event's textual IP back into an inventory key.
func ipKey(ip string, port uint16) (netmodel.Key, error) {
	parsed, err := asndb.ParseIP(ip)
	if err != nil {
		return netmodel.Key{}, err
	}
	return netmodel.Key{IP: parsed, Port: port}, nil
}
