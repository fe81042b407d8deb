package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/shard"
)

// WatchEntry is one added/updated/snapshot service in a watch event,
// as the producer encodes it and the consumer decodes it: every GPSV
// serving field, numerically — lossless, unlike the list endpoints.
type WatchEntry struct {
	IP        string `json:"ip"`
	Port      uint16 `json:"port"`
	Proto     uint8  `json:"proto"`
	ASN       uint32 `json:"asn"`
	TTL       uint8  `json:"ttl"`
	FirstSeen int    `json:"first_seen"`
	LastSeen  int    `json:"last_seen"`
	Stale     int    `json:"stale"`
}

// WatchKey names one removed service.
type WatchKey struct {
	IP   string `json:"ip"`
	Port uint16 `json:"port"`
}

// WatchEvent is one line of a /v1/watch stream: Event is "snapshot"
// (Services holds the full inventory as of Epoch) or "delta" (Adds/
// Updates/Removes advance BaseEpoch to Epoch).
type WatchEvent struct {
	Event     string       `json:"event"`
	Epoch     int          `json:"epoch"`
	BaseEpoch int          `json:"base_epoch"`
	Services  []WatchEntry `json:"services"`
	Adds      []WatchEntry `json:"adds"`
	Updates   []WatchEntry `json:"updates"`
	Removes   []WatchKey   `json:"removes"`
}

// delta is the event in the form shard.ApplyDelta takes: a delta event
// as it stands, a snapshot's services as the adds onto an inventory the
// caller has emptied.
func (ev WatchEvent) delta() (*shard.Delta, error) {
	var bad error
	key := func(ip string, port uint16) netmodel.Key {
		k, err := ipKey(ip, port)
		if err != nil && bad == nil {
			bad = err
		}
		return k
	}
	entries := func(es []WatchEntry) []shard.DeltaEntry {
		out := make([]shard.DeltaEntry, len(es))
		for i, e := range es {
			k := key(e.IP, e.Port)
			out[i] = shard.DeltaEntry{Key: k, Entry: continuous.Entry{
				Rec: dataset.Record{
					IP: k.IP, Port: e.Port,
					Proto: features.Protocol(e.Proto), ASN: asndb.ASN(e.ASN), TTL: e.TTL,
				},
				FirstSeen: e.FirstSeen, LastSeen: e.LastSeen, Stale: e.Stale,
			}}
		}
		return out
	}
	d := &shard.Delta{BaseEpoch: ev.BaseEpoch, Epoch: ev.Epoch, Updates: entries(ev.Updates)}
	if ev.Event == "snapshot" {
		d.Adds = entries(ev.Services)
	} else {
		d.Adds = entries(ev.Adds)
	}
	for _, r := range ev.Removes {
		d.Removes = append(d.Removes, key(r.IP, r.Port))
	}
	return d, bad
}

// ApplyTo folds the event into inv with shard.ApplyDelta, the one strict
// apply: a snapshot replaces inv's contents; a delta's adds must be new
// and its updates and removes must hit (anything else means inv diverged
// from the stream's base, and errors with inv partially updated). A
// consumer that starts from an empty map and applies every event in
// order holds exactly the origin's inventory after each event.
func (ev WatchEvent) ApplyTo(inv map[netmodel.Key]*continuous.Entry) error {
	if ev.Event != "snapshot" && ev.Event != "delta" {
		return fmt.Errorf("serve: unknown watch event %q", ev.Event)
	}
	d, err := ev.delta()
	if err != nil {
		return fmt.Errorf("serve: watch %s: %w", ev.Event, err)
	}
	if ev.Event == "snapshot" {
		clear(inv)
	}
	return shard.ApplyDelta(inv, d)
}

// ErrWatchDone stops WatchClient.Follow from inside the callback;
// Follow returns nil.
var ErrWatchDone = errors.New("serve: watch done")

// WatchClient follows a /v1/watch stream.
type WatchClient struct {
	// URL is the watch endpoint, e.g. http://host:port/v1/watch.
	URL string
	// Since resumes after an epoch the consumer already holds; -1 (or
	// any epoch out of the origin's history) starts with a snapshot.
	Since int
	// Client overrides the HTTP client; nil uses http.DefaultClient
	// (whose zero timeout is what an endless stream needs).
	Client *http.Client
}

// Follow connects and invokes fn for each event, in stream order, until
// the context ends, fn returns an error (ErrWatchDone for a clean
// stop), or the stream ends. A non-200 response is decoded into the
// error envelope and returned as an error.
func (c *WatchClient) Follow(ctx context.Context, fn func(WatchEvent) error) error {
	u, err := url.Parse(c.URL)
	if err != nil {
		return fmt.Errorf("serve: watch: %w", err)
	}
	q := u.Query()
	q.Set("since", strconv.Itoa(c.Since))
	u.RawQuery = q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return fmt.Errorf("serve: watch: %w", err)
	}
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("serve: watch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var envelope struct {
			Error errorJSON `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&envelope) == nil && envelope.Error.Code != "" {
			return fmt.Errorf("serve: watch: %s (%s)", envelope.Error.Message, envelope.Error.Code)
		}
		return fmt.Errorf("serve: watch: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	// A snapshot line carries the whole inventory; the scanner's default
	// 64 KiB line cap would truncate it.
	sc.Buffer(make([]byte, 0, 1<<16), 1<<28)
	for sc.Scan() {
		var ev WatchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("serve: watch: undecodable event: %w", err)
		}
		if err := fn(ev); err != nil {
			if errors.Is(err, ErrWatchDone) {
				return nil
			}
			return err
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("serve: watch: %w", err)
	}
	return nil
}
