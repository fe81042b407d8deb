package transport

import (
	"testing"

	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/pipeline"
	"gps/internal/trace"
	"gps/internal/wire/wiretest"
)

// goldenPayloads is one GPST payload per msg* encoder, each with tracing
// off and — where the frame has an optional trailing field — on. The
// blobs the payloads carry (state, seed, inventories) are opaque to the
// framing and pinned by their own goldens at the repo root.
func goldenPayloads(t *testing.T) []wiretest.Case {
	cfg := continuous.Config{
		Budget: 1 << 40, ReverifyFraction: 0.375, MaxStale: 3, ShardIndex: 2, ShardCount: 300,
		Pipeline: pipeline.Config{
			StepBits: 24, StepZero: true, Workers: 1, Families: 5, Floor: -1, MinSupport: -1,
			AppKeys: []features.Key{1, 3, 7}, Budget: 999, Seed: -42,
			RandomPriorsOrder: true, ExactShardCounts: true,
		},
	}
	spec := EncodeWorldSpec([]byte("world"), 300, []int{2, 130})
	tc := trace.SpanContext{TraceID: 0xabcdef0123, SpanID: 0x77}
	spans := []byte("an opaque span batch")

	payload := func(name string, optional int, b []byte, decode func([]byte) error) wiretest.Case {
		return wiretest.Case{
			Name:     "GPST-" + name,
			Encode:   func() ([]byte, error) { return b, nil },
			Decode:   decode,
			Optional: optional,
		}
	}
	// tail is how many bytes a frame's optional trailing field adds.
	tail := func(with, without []byte) int { return len(with) - len(without) }

	tryInit := func(b []byte) error { _, err := decodeInit(b); return err }
	tryEpochReq := func(b []byte) error { _, _, _, err := decodeEpochReq(b); return err }
	tryEpochResult := func(b []byte) error { _, _, _, _, err := decodeEpochResult(b); return err }
	tryShardAck := func(b []byte) error { _, err := decodeShardAck(b); return err }
	tryJoin := func(b []byte) error { _, err := decodeJoin(b); return err }
	tryOffer := func(b []byte) error { _, err := decodeOffer(b); return err }
	tryShardState := func(b []byte) error { _, _, _, err := decodeShardState(b); return err }
	tryError := func(b []byte) error { _, err := decodeError(b); return err }
	trySubscribe := func(b []byte) error { _, err := decodeSubscribe(b); return err }
	tryFeedSnapshot := func(b []byte) error { _, err := decodeFeedSnapshot(b); return err }
	tryFeedDelta := func(b []byte) error { _, err := decodeFeedDelta(b); return err }

	trySeed := func(b []byte) error { _, err := decodeSeed(b); return err }
	seed, err := encodeSeed(&dataset.Dataset{
		Name: "seed", SpaceSize: 1 << 16, SampleFraction: 0.5, Ports: []uint16{80, 443},
		Records: []dataset.Record{
			{IP: 0x0a000001, Port: 80, Proto: 1, ASN: 64500, TTL: 64, Feats: features.Set{features.KeyHTTPServer: "nginx"}},
			{IP: 0x0a000002, Port: 443, Proto: 2, ASN: 64501, TTL: 128},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	offer := offerMsg{Shard: 130, Cfg: cfg, WorldSpec: spec}
	traced := offer
	traced.Trace = tc
	return []wiretest.Case{
		payload("seed", 0, seed, trySeed),
		payload("init-seedref", 0, encodeInit(initMsg{Shard: 2, Cfg: cfg, WorldSpec: spec, Mode: initSeedRef}), tryInit),
		payload("init-resume", 0, encodeInit(initMsg{Shard: -1, Cfg: cfg, WorldSpec: spec, Mode: initResume, Blob: []byte("an opaque state blob")}), tryInit),
		payload("epoch", 0, encodeEpochReq(130, 9000, trace.SpanContext{}), tryEpochReq),
		payload("epoch-traced", tail(encodeEpochReq(130, 9000, tc), encodeEpochReq(130, 9000, trace.SpanContext{})),
			encodeEpochReq(130, 9000, tc), tryEpochReq),
		payload("epoch-result", 0, encodeEpochResult(130, []byte("state"), true, nil), tryEpochResult),
		payload("epoch-result-traced", tail(encodeEpochResult(130, []byte("state"), false, spans), encodeEpochResult(130, []byte("state"), false, nil)),
			encodeEpochResult(130, []byte("state"), false, spans), tryEpochResult),
		payload("ack", 0, encodeShardAck(130), tryShardAck),
		payload("join", 0, encodeJoin(joinMsg{ID: "worker-a"}), tryJoin),
		payload("offer", 0, encodeOffer(offer), tryOffer),
		payload("offer-traced", tail(encodeOffer(traced), encodeOffer(offer)), encodeOffer(traced), tryOffer),
		payload("state", 0, encodeShardState(130, []byte("state"), trace.SpanContext{}), tryShardState),
		payload("state-traced", tail(encodeShardState(130, []byte("state"), tc), encodeShardState(130, []byte("state"), trace.SpanContext{})),
			encodeShardState(130, []byte("state"), tc), tryShardState),
		payload("error", 0, encodeError("shard 130 is not mine"), tryError),
		payload("subscribe", 0, encodeSubscribe(-1), trySubscribe),
		payload("snapshot", 0, encodeFeedSnapshot(41, []byte("an opaque GPSV inventory")), tryFeedSnapshot),
		payload("delta", 0, encodeFeedDelta(9000, 42, []byte("an opaque GPSE delta")), tryFeedDelta),
	}
}

// TestGoldenPayloads holds every GPST payload encoder to the bytes it
// wrote before the transport moved onto internal/wire, and every decoder
// to a typed truncation error at each cut short of the optional tail.
func TestGoldenPayloads(t *testing.T) {
	wiretest.Run(t, "../../../testdata/golden", goldenPayloads(t))
}
