package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"gps/internal/continuous"
	"gps/internal/features"
	"gps/internal/metrics"
	"gps/internal/pipeline"
	"gps/internal/shard"
	"gps/internal/trace"
	"gps/internal/wire"
)

func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello shards")
	if err := writeFrame(&buf, msgEpoch, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf)
	if err != nil || typ != msgEpoch || !bytes.Equal(got, payload) {
		t.Fatalf("readFrame = (%d, %q, %v); want (%d, %q, nil)", typ, got, err, msgEpoch, payload)
	}
	// A cleanly exhausted stream is io.EOF, not a truncation.
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Errorf("empty stream returned %v; want io.EOF", err)
	}
}

// isTruncatedGPST is the check every truncation test below makes: a
// *wire.Error of kind Truncated naming the transport.
func isTruncatedGPST(err error) bool {
	var werr *wire.Error
	return errors.As(err, &werr) && werr.Format == Magic && werr.Kind == wire.Truncated
}

func TestWireTruncatedFrame(t *testing.T) {
	// A header promising 100 payload bytes backed by only 10.
	var buf bytes.Buffer
	hdr := [5]byte{msgInit}
	binary.BigEndian.PutUint32(hdr[1:], 100)
	buf.Write(hdr[:])
	buf.Write(make([]byte, 10))
	if _, _, err := readFrame(&buf); !isTruncatedGPST(err) {
		t.Errorf("truncated payload returned %v; want a truncated GPST *wire.Error", err)
	}

	// A stream cut inside the 5-byte header itself.
	if _, _, err := readFrame(bytes.NewReader(hdr[:3])); !isTruncatedGPST(err) {
		t.Errorf("truncated header returned %v; want a truncated GPST *wire.Error", err)
	}
}

func TestWireOversizedLengthPrefix(t *testing.T) {
	var buf bytes.Buffer
	hdr := [5]byte{msgEpochResult}
	binary.BigEndian.PutUint32(hdr[1:], maxFrame+1)
	buf.Write(hdr[:])

	_, _, err := readFrame(&buf)
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("oversized length prefix returned %v; want *FrameSizeError", err)
	}
	if fse.Size != maxFrame+1 || fse.Max != maxFrame || fse.Type != msgEpochResult {
		t.Errorf("FrameSizeError = %+v; want size %d max %d type %d", fse, maxFrame+1, maxFrame, msgEpochResult)
	}
	if !fse.Refused() {
		t.Error("an oversized frame is not a refusal; every worker would send it again")
	}
	msg := fse.Error()
	for _, want := range []string{fmt.Sprintf("frame type %d", msgEpochResult), fmt.Sprint(maxFrame + 1), fmt.Sprintf("limit %d", maxFrame)} {
		if !strings.Contains(msg, want) {
			t.Errorf("FrameSizeError says %q; want it to name %q", msg, want)
		}
	}
}

// An oversized payload must be refused at the sender, before any bytes
// hit the wire: past the u32 range the length prefix would wrap and
// desync the stream.
func TestWireOversizedWriteRefused(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, msgInit, make([]byte, maxFrame+1))
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("oversized write returned %v; want *FrameSizeError", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused frame still wrote %d bytes", buf.Len())
	}
}

// TestWireVersionMismatch: a peer one version behind (whose shard states
// are the previous GPSC) or one ahead is refused at the preamble.
func TestWireVersionMismatch(t *testing.T) {
	for _, v := range []byte{Version - 1, Version + 1} {
		err := readHandshake(bytes.NewReader(append([]byte(Magic), v)))
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Format != Magic || werr.Kind != wire.BadVersion {
			t.Fatalf("version-%d preamble returned %v; want a bad-version GPST *wire.Error", v, err)
		}
		if want := fmt.Sprintf("found version %d, want %d", v, Version); !strings.Contains(err.Error(), want) {
			t.Errorf("bad-version error %q does not say %q", err, want)
		}
	}
}

func TestWireBadMagic(t *testing.T) {
	err := readHandshake(bytes.NewReader([]byte("HTTP1")))
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Format != Magic || werr.Kind != wire.BadMagic {
		t.Fatalf("non-transport stream returned %v; want a bad-magic GPST *wire.Error", err)
	}
	if !isTruncatedGPST(readHandshake(bytes.NewReader([]byte("GP")))) {
		t.Error("preamble cut mid-magic did not return a truncated *wire.Error")
	}
}

// A worker that dies between accepting a request and answering it must
// surface as a typed DisconnectError on the coordinator's side.
func TestWireMidStreamDisconnect(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		writeHandshake(conn)
		readHandshake(conn)
		readFrame(conn) // swallow the request...
		conn.Close()    // ...and die without answering
	}()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHandshake(conn); err != nil {
		t.Fatal(err)
	}
	if err := readHandshake(conn); err != nil {
		t.Fatal(err)
	}
	w := &workerLink{addr: lis.Addr().String(), conn: conn, timeout: 5 * time.Second}
	_, err = w.rpc(msgEpoch, encodeEpochReq(0, 1, trace.SpanContext{}), msgEpochResult)
	var de *DisconnectError
	if !errors.As(err, &de) {
		t.Fatalf("mid-stream disconnect returned %v; want *DisconnectError", err)
	}
	if de.Addr != lis.Addr().String() {
		t.Errorf("DisconnectError.Addr = %q; want %q", de.Addr, lis.Addr().String())
	}
}

// TestWireEpochResultMustMatchRequest: workerLink.Epoch accepts a result
// only for the shard and the epoch it asked about; a worker answering
// for either other one has broken protocol.
func TestWireEpochResultMustMatchRequest(t *testing.T) {
	base, step := goldenStep()
	for _, tc := range []struct {
		name         string
		shard, epoch int
		want         string
	}{
		{"right", 1, 5, ""},
		{"wrong shard", 2, 5, "answered for shard 2"},
		{"wrong epoch", 1, 6, "reported epoch 6"},
	} {
		st, stats, err := epochOverPipe(t, base, epochResult{Shard: tc.shard, Step: step, Stats: continuous.EpochStats{Epoch: tc.epoch}})
		switch {
		case tc.want == "" && (err != nil || stats.Epoch != 5 || st.Epoch != 5 || len(st.Known) != 5):
			t.Errorf("%s: Epoch = (%+v, %v); want epoch 5's stats and state", tc.name, stats, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Epoch error %v; want it to say %q", tc.name, err, tc.want)
		}
	}
}

// TestWireStepFromAnotherBase: a result whose step does not start from
// the state the coordinator holds for the shard means the worker's runner
// drifted from it, and poisons the link so the shard is placed again.
func TestWireStepFromAnotherBase(t *testing.T) {
	base, _ := goldenStep()
	for name, other := range map[string]*continuous.State{
		"another epoch": {Epoch: base.Epoch - 1, Known: base.Known},
		"another count": {Epoch: base.Epoch, Known: base.Known[1:]},
	} {
		next := &continuous.State{Epoch: base.Epoch + 1, Known: other.Known}
		res := epochResult{Shard: 1, Step: shard.EncodeStep(other, next), Stats: continuous.EpochStats{Epoch: base.Epoch + 1}}
		_, _, err := epochOverPipe(t, base, res)
		var de *DisconnectError
		if !errors.As(err, &de) || !wire.IsKind(err, wire.Implausible) {
			t.Errorf("%s: Epoch error %v; want a *DisconnectError over an implausible *wire.Error", name, err)
		}
	}
}

// epochOverPipe asks a scripted worker for shard 1's epoch base.Epoch+1
// over a pipe, as the coordinator holding base does, and returns what
// workerLink.Epoch makes of the worker's answer res.
func epochOverPipe(t *testing.T, base *continuous.State, res epochResult) (*continuous.State, continuous.EpochStats, error) {
	t.Helper()
	coordEnd, workerEnd := net.Pipe()
	go func() {
		defer workerEnd.Close()
		if _, _, err := readFrame(workerEnd); err != nil {
			return
		}
		writeFrame(workerEnd, msgEpochResult, encodeEpochResult(res))
	}()
	defer coordEnd.Close()
	w := &workerLink{addr: "pipe", conn: coordEnd, timeout: 5 * time.Second}
	st, stats, _, err := w.Epoch(1, base.Epoch+1, base, nil, trace.SpanContext{})
	return st, stats, err
}

func TestWireConfigRoundTrip(t *testing.T) {
	in := continuous.Config{
		Budget:           12345,
		ReverifyFraction: 0.375,
		MaxStale:         3,
		ShardIndex:       2,
		ShardCount:       4,
		Pipeline: pipeline.Config{
			StepBits:   24,
			StepZero:   true,
			Workers:    1,
			Families:   5,
			Floor:      -1,
			MinSupport: -1,
			AppKeys:    []features.Key{1, 3, 7},
			Budget:     999,
			Seed:       -42,
		},
	}
	var e wire.Enc
	encodeConfig(&e, in)
	d := wire.NewDec(Magic, e)
	out := decodeConfig(d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if out.Budget != in.Budget || out.ReverifyFraction != in.ReverifyFraction ||
		out.MaxStale != in.MaxStale || out.ShardIndex != in.ShardIndex ||
		out.ShardCount != in.ShardCount {
		t.Errorf("continuous fields did not round-trip: %+v", out)
	}
	op, ip := out.Pipeline, in.Pipeline
	if op.StepBits != ip.StepBits || op.StepZero != ip.StepZero || op.Workers != ip.Workers ||
		op.Families != ip.Families || op.Floor != ip.Floor || op.MinSupport != ip.MinSupport ||
		op.Budget != ip.Budget || op.Seed != ip.Seed {
		t.Errorf("pipeline fields did not round-trip: %+v", op)
	}
	if len(op.AppKeys) != len(ip.AppKeys) {
		t.Fatalf("AppKeys did not round-trip: %v", op.AppKeys)
	}
	for i := range ip.AppKeys {
		if op.AppKeys[i] != ip.AppKeys[i] {
			t.Errorf("AppKeys[%d] = %d; want %d", i, op.AppKeys[i], ip.AppKeys[i])
		}
	}
}

func TestWireInitTruncatedPayload(t *testing.T) {
	m := initMsg{Shard: 1, WorldSpec: []byte("spec"), State: bytes.Repeat([]byte("x"), 64)}
	full := encodeInit(m)
	for _, cut := range []int{0, 1, len(full) / 2, len(full) - 1} {
		if _, err := decodeInit(full[:cut]); !isTruncatedGPST(err) {
			t.Errorf("init payload cut to %d/%d bytes returned %v; want a truncated *wire.Error", cut, len(full), err)
		}
	}
	if got, err := decodeInit(full); err != nil || got.Shard != 1 || !bytes.Equal(got.State, m.State) {
		t.Errorf("full init payload = (%+v, %v)", got, err)
	}
}

// TestWireWorldSpecEnvelope round-trips the partition envelope and pins
// its canonicalization: equal ownership must yield equal bytes whatever
// order the owned set was listed in, because the worker session decides
// "same world?" by comparing spec bytes.
func TestWireWorldSpecEnvelope(t *testing.T) {
	base := []byte("opaque base spec")
	spec := EncodeWorldSpec(base, 8, []int{5, 1, 3})
	gotBase, shards, owned, err := DecodeWorldSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBase, base) || shards != 8 {
		t.Fatalf("DecodeWorldSpec = (%q, %d); want (%q, 8)", gotBase, shards, base)
	}
	if len(owned) != 3 || owned[0] != 1 || owned[1] != 3 || owned[2] != 5 {
		t.Fatalf("owned = %v; want [1 3 5] ascending", owned)
	}
	if !bytes.Equal(spec, EncodeWorldSpec(base, 8, []int{1, 3, 5})) {
		t.Error("ownership order changed the spec bytes; envelope must canonicalize")
	}
	// An empty base (no inner spec) still round-trips.
	if _, _, _, err := DecodeWorldSpec(EncodeWorldSpec(nil, 2, []int{0})); err != nil {
		t.Errorf("empty base spec failed to round-trip: %v", err)
	}
}

// TestWireWorldSpecEnvelopeRejects: every malformed envelope maps to an
// error, never a misparse.
func TestWireWorldSpecEnvelopeRejects(t *testing.T) {
	good := EncodeWorldSpec([]byte("base"), 4, []int{0, 2})
	cases := map[string][]byte{
		"empty":            nil,
		"bad magic":        []byte("GPSX rest"),
		"raw base":         []byte("base"),
		"truncated":        good[:len(good)-3],
		"zero shards":      EncodeWorldSpec([]byte("b"), 0, nil),
		"out-of-range own": append(append([]byte{}, "GPSP"...), 4, 1, 9, 1, 'b'),
		"descending owned": append(append([]byte{}, "GPSP"...), 4, 2, 2, 0, 1, 'b'),
		"owns more than n": append(append([]byte{}, "GPSP"...), 2, 3, 0, 1, 1, 1, 'b'),
	}
	for name, spec := range cases {
		_, _, _, err := DecodeWorldSpec(spec)
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Format != specMagic {
			t.Errorf("%s: DecodeWorldSpec(%q) returned %v; want a GPSP *wire.Error", name, spec, err)
		}
	}
	if _, _, _, err := DecodeWorldSpec([]byte("nope-not-a-spec")); !wire.IsKind(err, wire.BadMagic) {
		t.Errorf("foreign bytes returned %v; want a bad-magic *wire.Error", err)
	}
}

// TestWireEpochResultPhases: the epoch's counters and phase split are
// fixed fields of msgEpochResult. Every one round-trips, with and without
// a span batch behind them, and a frame cut anywhere short of the span
// batch is a truncation, not zero stats.
func TestWireEpochResultPhases(t *testing.T) {
	stats := continuous.EpochStats{
		Epoch: 1, ReverifyProbes: 2, DiscoveryProbes: 3, Verified: 4, Lost: 5, Evicted: 6,
		NewFound: 7, Refreshed: 8, TrainSize: 9, KnownSize: 10,
		Freshness: metrics.Freshness{Known: 11, Fresh: 12, Stale: 13, Checked: 14, Alive: 15},
		Phases:    continuous.PhaseTimes{Reverify: 3 * time.Millisecond, Retrain: time.Second, Discover: 42, Fold: 1 << 40},
	}
	fixed := encodeEpochResult(epochResult{Shard: 2, Step: []byte("step"), Draining: true, Stats: stats})
	for _, spans := range [][]byte{nil, []byte("a span batch")} {
		full := encodeEpochResult(epochResult{Shard: 2, Step: []byte("step"), Draining: true, Stats: stats, Spans: spans})
		got, err := decodeEpochResult(full)
		if err != nil || got.Shard != 2 || string(got.Step) != "step" || !got.Draining || !bytes.Equal(got.Spans, spans) {
			t.Fatalf("spans=%q: result decoded to (%+v, %v)", spans, got, err)
		}
		if got.Stats != stats {
			t.Errorf("spans=%q: stats decoded to %+v; want %+v", spans, got.Stats, stats)
		}
	}
	for cut := 0; cut < len(fixed); cut++ {
		if _, err := decodeEpochResult(fixed[:cut]); !wire.IsKind(err, wire.Truncated) {
			t.Fatalf("result cut at %d of %d: %v; want a truncated *wire.Error", cut, len(fixed), err)
		}
	}
}
