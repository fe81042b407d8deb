package transport

import (
	"bytes"
	"errors"
	"io"
	"slices"
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

// reencoders pairs each frame type with its payload decoder and the
// encoder that must reproduce an accepted payload byte for byte.
var reencoders = map[uint8]func([]byte) ([]byte, error){
	msgInit: func(b []byte) ([]byte, error) {
		m, err := decodeInit(b)
		return encodeInit(m), err
	},
	msgInitOK: func(b []byte) ([]byte, error) {
		s, err := decodeShardAck(b)
		return encodeShardAck(s), err
	},
	msgEpoch: func(b []byte) ([]byte, error) {
		s, e, tc, err := decodeEpochReq(b)
		return encodeEpochReq(s, e, tc), err
	},
	msgEpochResult: func(b []byte) ([]byte, error) {
		r, err := decodeEpochResult(b)
		return encodeEpochResult(r), err
	},
	msgError: func(b []byte) ([]byte, error) {
		msg, err := decodeError(b)
		return encodeError(msg), err
	},
	msgJoin: func(b []byte) ([]byte, error) {
		m, err := decodeJoin(b)
		return encodeJoin(m), err
	},
	msgSubscribe: func(b []byte) ([]byte, error) {
		since, err := decodeSubscribe(b)
		return encodeSubscribe(since), err
	},
	msgSnapshot: func(b []byte) ([]byte, error) {
		ev, err := decodeFeedSnapshot(b)
		return encodeFeedSnapshot(ev.Epoch, ev.Payload), err
	},
	msgDelta: func(b []byte) ([]byte, error) {
		ev, err := decodeFeedDelta(b)
		return encodeFeedDelta(ev.Head, ev.Epoch, ev.Payload), err
	},
}

// FuzzDecodeFrame drives arbitrary bytes through readFrame and all ten
// payload decoders. The invariants under test: no decoder panics on any
// input, every failure is one of the documented typed errors, a read
// frame re-encodes to the exact bytes it was read from, and a payload
// the decoder of its frame type accepts re-encodes to itself.
func FuzzDecodeFrame(f *testing.F) {
	cfg := continuous.Config{Budget: 64, ShardCount: 4}
	spec := EncodeWorldSpec([]byte("world"), 4, []int{0, 2})
	stats := continuous.EpochStats{
		Epoch: 17, ReverifyProbes: 1 << 20, DiscoveryProbes: 1 << 40, Verified: 5, Lost: 1, KnownSize: 6,
		Phases: continuous.PhaseTimes{Reverify: 1, Retrain: 1 << 20, Discover: 1 << 40, Fold: 3},
	}
	result := encodeEpochResult(epochResult{Shard: 3, Step: []byte("step"), Draining: true, Stats: stats, Spans: []byte("spans")})
	notBool := slices.Clone(result)
	notBool[1+1+len("step")] = 2 // the draining byte, after the shard and the step blob
	seeds := [][]byte{
		frameBytes(f, msgInit, encodeInit(initMsg{Shard: 1, Cfg: cfg, WorldSpec: spec, State: []byte("blob")})),
		frameBytes(f, msgEpoch, encodeEpochReq(3, 17, trace.SpanContext{TraceID: 7, SpanID: 9})),
		frameBytes(f, msgEpochResult, result),
		frameBytes(f, msgEpochResult, notBool),
		frameBytes(f, msgEpochResult, encodeEpochResult(epochResult{Shard: 3, Step: []byte("step"), Stats: stats})),
		frameBytes(f, msgInit, encodeInit(initMsg{Shard: 2, Cfg: cfg, WorldSpec: spec, State: []byte("blob"), Trace: trace.SpanContext{TraceID: 7, SpanID: 9}})),
		frameBytes(f, msgJoin, encodeJoin(joinMsg{ID: "worker-a"})),
		frameBytes(f, msgInitOK, encodeShardAck(5)),
		frameBytes(f, msgInitOK, append(encodeShardAck(5), 0)), // one trailing byte
		frameBytes(f, msgError, encodeError("shard 5 is not mine")),
		frameBytes(f, msgSubscribe, encodeSubscribe(-1)),
		frameBytes(f, msgSnapshot, encodeFeedSnapshot(41, []byte("GPSV"))),
		frameBytes(f, msgDelta, encodeFeedDelta(42, 41, []byte("GPSE"))),
		frameBytes(f, msgInit, spec),   // a GPSP envelope as a payload
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
		// Every payload decoder must survive every payload with a typed
		// refusal or an acceptance; the frame type's own must accept
		// only what its encoder writes.
		for mt, reencode := range reencoders {
			again, err := reencode(payload)
			if err != nil {
				if !isWireError(err, Magic) {
					t.Fatalf("frame type %d: untyped error %T: %v", mt, err, err)
				}
				continue
			}
			if mt == typ && !bytes.Equal(again, payload) {
				t.Fatalf("frame type %d: accepted payload re-encodes differently:\n got %x\nwant %x", typ, again, payload)
			}
		}
		if _, _, _, err := DecodeWorldSpec(payload); err != nil && !isWireError(err, specMagic) {
			t.Fatalf("DecodeWorldSpec: untyped error %T: %v", err, err)
		}
	})
}

// isWireError reports a *wire.Error naming format.
func isWireError(err error, format string) bool {
	var werr *wire.Error
	return errors.As(err, &werr) && werr.Format == format
}

// FuzzDecodeWorldSpec drives arbitrary bytes through the GPSP envelope
// reader. No input may panic; every refusal is a *wire.Error naming
// GPSP; and an accepted envelope re-encodes to exactly its bytes.
func FuzzDecodeWorldSpec(f *testing.F) {
	good := EncodeWorldSpec([]byte("world"), 300, []int{2, 130})
	f.Add(good)
	f.Add(good[:len(good)-3])                                     // cut inside the base spec
	f.Add(append(slices.Clone(good), 0))                          // one trailing byte
	f.Add([]byte("GPSX rest"))                                    // foreign magic
	f.Add(append([]byte(specMagic), 4, 2, 2, 0, 1, 'b'))          // descending owned list
	f.Add(append([]byte(specMagic), 0xff, 0xff, 0xff, 0x7f, 0x0)) // implausible shard count

	f.Fuzz(func(t *testing.T, data []byte) {
		base, shards, owned, err := DecodeWorldSpec(data)
		if err != nil {
			if !isWireError(err, specMagic) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if again := EncodeWorldSpec(base, shards, owned); !bytes.Equal(again, data) {
			t.Fatalf("accepted envelope re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}
