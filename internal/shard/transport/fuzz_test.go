package transport

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"gps/internal/continuous"
	"gps/internal/trace"
	"gps/internal/wire"
)

// frameBytes builds a seed corpus entry through the package's own
// writer, so every seed is a genuine wire frame.
func frameBytes(tb testing.TB, typ uint8, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, typ, payload); err != nil {
		tb.Fatalf("seeding frame %d: %v", typ, err)
	}
	return buf.Bytes()
}

// FuzzDecodeFrame drives arbitrary bytes through readFrame and every
// typed payload decoder. The invariants under test: no decoder panics
// on any input, readFrame failures are the documented typed errors, and
// a successfully read frame re-encodes to the exact bytes it was read
// from (the canonical-bytes contract).
func FuzzDecodeFrame(f *testing.F) {
	cfg := continuous.Config{Budget: 64, ShardCount: 4}
	spec := EncodeWorldSpec([]byte("world"), 4, []int{0, 2})
	stats := continuous.EpochStats{
		Epoch: 17, ReverifyProbes: 1 << 20, DiscoveryProbes: 1 << 40, Verified: 5, Lost: 1, KnownSize: 6,
		Phases: continuous.PhaseTimes{Reverify: 1, Retrain: 1 << 20, Discover: 1 << 40, Fold: 3},
	}
	seeds := [][]byte{
		frameBytes(f, msgInit, encodeInit(initMsg{Shard: 1, Cfg: cfg, WorldSpec: spec, State: []byte("blob")})),
		frameBytes(f, msgEpoch, encodeEpochReq(3, 17, trace.SpanContext{TraceID: 7, SpanID: 9})),
		frameBytes(f, msgEpochResult, encodeEpochResult(epochResult{Shard: 3, Step: []byte("step"), Draining: true, Stats: stats, Spans: []byte("spans")})),
		frameBytes(f, msgEpochResult, encodeEpochResult(epochResult{Shard: 3, Step: []byte("step"), Stats: stats})),
		frameBytes(f, msgInit, encodeInit(initMsg{Shard: 2, Cfg: cfg, WorldSpec: spec, State: []byte("blob"), Trace: trace.SpanContext{TraceID: 7, SpanID: 9}})),
		frameBytes(f, msgJoin, encodeJoin(joinMsg{ID: "worker-a"})),
		frameBytes(f, msgInitOK, encodeShardAck(5)),
		frameBytes(f, msgError, encodeError("shard 5 is not mine")),
		{},                             // clean EOF
		{msgInit, 0, 0},                // cut mid-header
		{0xff, 0xff, 0xff, 0xff, 0xff}, // implausible length prefix
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			var fse *FrameSizeError
			if !isTruncatedGPST(err) && !errors.As(err, &fse) && !errors.Is(err, io.EOF) {
				t.Fatalf("readFrame: untyped error %T: %v", err, err)
			}
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-encoding a read frame: %v", err)
		}
		if want := data[:5+len(payload)]; !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("frame round-trip changed bytes:\n got %x\nwant %x", buf.Bytes(), want)
		}
		// Every payload decoder must tolerate every payload: errors are
		// fine, panics and runaway allocations are not.
		decodeInit(payload)
		decodeEpochReq(payload)
		decodeEpochResult(payload)
		decodeShardAck(payload)
		decodeError(payload)
		decodeJoin(payload)
		DecodeWorldSpec(payload)
	})
}

// FuzzDecodeWorldSpec drives arbitrary bytes through the GPSP envelope
// reader. No input may panic; every refusal is a *wire.Error naming
// GPSP; and an accepted envelope re-encodes to one that decodes to the
// same base spec, shard count and owned set.
func FuzzDecodeWorldSpec(f *testing.F) {
	good := EncodeWorldSpec([]byte("world"), 300, []int{2, 130})
	f.Add(good)
	f.Add(good[:len(good)-3])                                     // cut inside the base spec
	f.Add([]byte("GPSX rest"))                                    // foreign magic
	f.Add(append([]byte(specMagic), 4, 2, 2, 0, 1, 'b'))          // descending owned list
	f.Add(append([]byte(specMagic), 0xff, 0xff, 0xff, 0x7f, 0x0)) // implausible shard count

	f.Fuzz(func(t *testing.T, data []byte) {
		base, shards, owned, err := DecodeWorldSpec(data)
		if err != nil {
			var werr *wire.Error
			if !errors.As(err, &werr) || werr.Format != specMagic {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		base2, shards2, owned2, err := DecodeWorldSpec(EncodeWorldSpec(base, shards, owned))
		if err != nil {
			t.Fatalf("re-reading a re-encoded envelope: %v", err)
		}
		if !bytes.Equal(base, base2) || shards != shards2 || !reflect.DeepEqual(owned, owned2) {
			t.Fatalf("envelope changed across a round trip: (%q, %d, %v) vs (%q, %d, %v)",
				base, shards, owned, base2, shards2, owned2)
		}
	})
}
