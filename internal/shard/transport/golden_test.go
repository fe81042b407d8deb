package transport

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/metrics"
	"gps/internal/pipeline"
	"gps/internal/shard"
	"gps/internal/trace"
	"gps/internal/wire"
	"gps/internal/wire/wiretest"
)

// goldenPayloads is one GPST payload per msg* encoder, each with tracing
// off and — where the frame carries a trace context or span batch — on. The
// blobs the payloads carry (state, inventories) are opaque to the
// framing and pinned by their own goldens at the repo root; the epoch
// result's step has no golden of its own, so its rows carry a real one
// (goldenStep) and decode it against its base.
func goldenPayloads() []wiretest.Case {
	cfg := continuous.Config{
		Budget: 1 << 40, ReverifyFraction: 0.375, MaxStale: 3, ShardIndex: 2, ShardCount: 300,
		Pipeline: pipeline.Config{
			StepBits: 24, StepZero: true, Workers: 1, Families: 5, Floor: -1, MinSupport: -1,
			AppKeys: []features.Key{1, 3, 7}, Budget: 999, Seed: -42,
		},
	}
	spec := EncodeWorldSpec([]byte("world"), 300, []int{2, 130})
	tc := trace.SpanContext{TraceID: 0xabcdef0123, SpanID: 0x77}
	spans := []byte("an opaque span batch")
	stats := continuous.EpochStats{
		Epoch: 9000, ReverifyProbes: 1 << 33, DiscoveryProbes: 12345678,
		Verified: 4100, Lost: 210, Evicted: 17, NewFound: 333, Refreshed: 3900,
		TrainSize: 4400, KnownSize: 4416,
		Freshness: metrics.Freshness{Known: 4416, Fresh: 4233, Stale: 183, Checked: 4310, Alive: 4100},
		Phases: continuous.PhaseTimes{
			Reverify: 1500 * time.Microsecond, Retrain: 20 * time.Millisecond,
			Discover: 3 * time.Second, Fold: 7 * time.Nanosecond,
		},
	}
	base, step := goldenStep()
	result := epochResult{Shard: 130, Step: step, Draining: true, Stats: stats}
	tracedResult := result
	tracedResult.Draining, tracedResult.Spans = false, spans

	payload := func(name string, b []byte, decode func([]byte) error) wiretest.Case {
		return wiretest.Case{
			Name:   "GPST-" + name,
			Encode: func() ([]byte, error) { return b, nil },
			Decode: decode,
		}
	}

	tryInit := func(b []byte) error { _, err := decodeInit(b); return err }
	tryEpochReq := func(b []byte) error { _, _, _, err := decodeEpochReq(b); return err }
	tryEpochResult := func(b []byte) error {
		r, err := decodeEpochResult(b)
		if err == nil {
			_, err = shard.ApplyStep(base, r.Step)
		}
		return err
	}
	tryShardAck := func(b []byte) error { _, err := decodeShardAck(b); return err }
	tryJoin := func(b []byte) error { _, err := decodeJoin(b); return err }
	tryError := func(b []byte) error { _, err := decodeError(b); return err }
	trySubscribe := func(b []byte) error { _, err := decodeSubscribe(b); return err }
	tryFeedSnapshot := func(b []byte) error { _, err := decodeFeedSnapshot(b); return err }
	tryFeedDelta := func(b []byte) error { _, err := decodeFeedDelta(b); return err }

	init := initMsg{Shard: -1, Cfg: cfg, WorldSpec: spec, State: []byte("an opaque state blob")}
	traced := init
	traced.Trace = tc
	return []wiretest.Case{
		payload("init", encodeInit(init), tryInit),
		payload("init-traced", encodeInit(traced), tryInit),
		payload("epoch", encodeEpochReq(130, 9000, trace.SpanContext{}), tryEpochReq),
		payload("epoch-traced", encodeEpochReq(130, 9000, tc), tryEpochReq),
		payload("epoch-result", encodeEpochResult(result), tryEpochResult),
		payload("epoch-result-traced", encodeEpochResult(tracedResult), tryEpochResult),
		payload("ack", encodeShardAck(130), tryShardAck),
		payload("join", encodeJoin(joinMsg{ID: "worker-a"}), tryJoin),
		payload("error", encodeError("shard 130 is not mine"), tryError),
		payload("subscribe", encodeSubscribe(-1), trySubscribe),
		payload("snapshot", encodeFeedSnapshot(41, []byte("an opaque GPSV inventory")), tryFeedSnapshot),
		payload("delta", encodeFeedDelta(9000, 42, []byte("an opaque GPSE delta")), tryFeedDelta),
	}
}

// goldenStep is a step that takes every op over a hand-made epoch-4
// base: one entry kept, one seen, one marked stale, one evicted, one
// refreshed with changed features (dropped and put again), and one new
// service put.
func goldenStep() (*continuous.State, []byte) {
	entry := func(ip uint32, port uint16, banner string, first, last, stale int) continuous.Entry {
		return continuous.Entry{
			Rec: dataset.Record{IP: asndb.IP(ip), Port: port, Proto: 2, ASN: 64500, TTL: 61,
				Feats: features.NewSet(features.Value{Key: 3, Val: banner})},
			FirstSeen: first, LastSeen: last, Stale: stale,
		}
	}
	base := &continuous.State{Epoch: 4, Known: []continuous.Entry{
		entry(0x0a000001, 22, "ssh", 0, 2, 1),
		entry(0x0a000001, 80, "http", 0, 4, 0),
		entry(0x0a000002, 443, "tls", 1, 4, 0),
		entry(0x0a000003, 8080, "http", 2, 3, 1),
		entry(0x0a000004, 21, "ftp", 0, 4, 0),
	}}
	next := &continuous.State{Epoch: 5, Known: []continuous.Entry{
		base.Known[0],
		entry(0x0a000001, 80, "http", 0, 5, 0),
		entry(0x0a000002, 443, "tls", 1, 4, 1),
		entry(0x0a000004, 21, "ftp2", 0, 5, 0),
		entry(0x0a000005, 25, "smtp", 5, 5, 0),
	}}
	return base, shard.EncodeStep(base, next)
}

// TestGoldenPayloads holds every GPST payload encoder to its golden
// bytes, and every decoder to a typed truncation error at each cut and a
// trailing-data error one byte past the end.
func TestGoldenPayloads(t *testing.T) {
	const dir = "../../../testdata/golden"
	cases := goldenPayloads()
	wiretest.Run(t, dir, cases)

	// A golden with no row pins nothing: a retired frame's file must go
	// with its encoder (the root TestGoldenFormats leaves GPST-* to us).
	checked := make(map[string]bool)
	for _, c := range cases {
		checked[c.Name] = true
	}
	files, err := filepath.Glob(filepath.Join(dir, "GPST-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(filepath.Base(f), ".bin"); !checked[name] {
			t.Errorf("%s has no goldenPayloads row", f)
		}
	}
}

// TestEpochResultDrainingByteIsZeroOrOne: the golden epoch result with
// its draining byte set to 2 is refused, not read as draining and then
// re-encoded to other bytes.
func TestEpochResultDrainingByteIsZeroOrOne(t *testing.T) {
	golden, err := os.ReadFile("../../../testdata/golden/GPST-epoch-result.bin")
	if err != nil {
		t.Fatal(err)
	}
	_, step := goldenStep()
	var prefix wire.Enc // the fields before the draining byte
	prefix.Varint(130)
	prefix.Blob(step)
	if golden[len(prefix)] != 1 {
		t.Fatalf("byte %d of the golden is %d; want its draining flag, 1", len(prefix), golden[len(prefix)])
	}
	bad := bytes.Clone(golden)
	bad[len(prefix)] = 2
	if r, err := decodeEpochResult(bad); !wire.IsKind(err, wire.Implausible) {
		t.Errorf("draining byte 2 decoded to (draining %v, %v); want an implausible *wire.Error", r.Draining, err)
	}
}
