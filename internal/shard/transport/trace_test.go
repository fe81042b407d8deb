package transport

import (
	"bytes"
	"testing"

	"gps/internal/trace"
	"gps/internal/wire"
)

func spanAttr(r trace.SpanRecord, key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestTransportTraceStitching runs one distributed epoch and asserts
// the coordinator's flight recorder holds the stitched tree: an epoch
// root, one rpc.epoch child per shard, and under each of those the
// phase spans the worker shipped back on the result frame.
func TestTransportTraceStitching(t *testing.T) {
	const worldSeed, n = 21, 2
	trace.Default.Reset()
	trace.Default.SetEnabled(true)

	var addrs []string
	for i := 0; i < n; i++ {
		addrs = append(addrs, startWorker(t).addr())
	}
	c, err := Dial(addrs, testConfig(n), worldSpec(worldSeed), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, seedSet := testSeed(worldSeed)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatal(err)
	}

	var root trace.SpanRecord
	roots := 0
	for _, r := range trace.Default.Snapshot() {
		if r.Parent == 0 && r.Name == "epoch" {
			root, roots = r, roots+1
		}
	}
	if roots != 1 {
		t.Fatalf("recorded %d epoch roots; want exactly 1", roots)
	}

	// The test runs worker and coordinator in one process sharing the
	// Default recorder, so shipped-back spans appear both as the worker's
	// local record and as the coordinator's import: dedup by span id.
	spans := make(map[uint64]trace.SpanRecord)
	for _, r := range trace.Default.TraceSpans(root.TraceID) {
		spans[r.SpanID] = r
	}

	rpcShards := make(map[string]uint64) // shard attr -> span id
	for id, r := range spans {
		if r.Name == "rpc.epoch" && r.Parent == root.SpanID {
			rpcShards[spanAttr(r, "shard")] = id
		}
	}
	if len(rpcShards) != n {
		t.Fatalf("epoch root has %d rpc.epoch children (%v); want one per shard (%d)",
			len(rpcShards), rpcShards, n)
	}

	phases := make(map[string]map[string]bool) // shard -> phase names seen
	for _, r := range spans {
		for shard, rpcID := range rpcShards {
			if r.Parent == rpcID {
				if phases[shard] == nil {
					phases[shard] = make(map[string]bool)
				}
				phases[shard][r.Name] = true
			}
		}
	}
	for shard, id := range rpcShards {
		got := phases[shard]
		for _, want := range []string{"reverify", "retrain", "discover", "fold"} {
			if !got[want] {
				t.Errorf("shard %s (rpc span %016x): phase %q missing from stitched tree; got %v",
					shard, id, want, got)
			}
		}
	}
}

// TestTransportTraceContextSkew pins wire compatibility with peers that
// predate the trailing trace-context fields. GPST decoders never
// require payload exhaustion, so the fields are compatible both ways
// without a version bump: an old peer's shorter frames decode with a
// zero context, and a new peer with tracing off emits byte-identical
// old frames.
func TestTransportTraceContextSkew(t *testing.T) {
	// Old coordinator -> new worker: the request ends after the epoch.
	var oldReq wire.Enc
	oldReq.Varint(3)
	oldReq.Varint(9)
	shard, epoch, tc, err := decodeEpochReq(oldReq)
	if err != nil || shard != 3 || epoch != 9 || tc.Valid() {
		t.Fatalf("old epoch request decoded to (%d, %d, %+v, %v); want (3, 9, zero ctx, nil)",
			shard, epoch, tc, err)
	}
	// New coordinator without a trace emits exactly the old frame.
	if !bytes.Equal(encodeEpochReq(3, 9, trace.SpanContext{}), oldReq) {
		t.Error("untraced epoch request differs from the pre-trace wire format")
	}
	// With a trace the old fields stay a prefix, so an old worker's
	// decoder reads them and ignores the tail.
	traced := encodeEpochReq(3, 9, trace.SpanContext{TraceID: 0xabc, SpanID: 0xdef})
	if !bytes.HasPrefix(traced, oldReq) {
		t.Error("trace context must trail the epoch-request fields")
	}

	// Placement: an init from an encoder that never appends a context
	// still decodes, to a zero context, and a zero-context encode is
	// exactly those bytes.
	cfg := testConfig(1).Continuous
	var oldInit wire.Enc
	oldInit.Varint(2)
	encodeConfig(&oldInit, cfg)
	oldInit.Blob([]byte("spec"))
	oldInit.Blob([]byte("blob"))
	m, err := decodeInit(oldInit)
	if err != nil || m.Shard != 2 || string(m.State) != "blob" || m.Trace.Valid() {
		t.Fatalf("untraced init decoded to (%+v, %v)", m, err)
	}
	if !bytes.Equal(encodeInit(initMsg{Shard: 2, Cfg: cfg, WorldSpec: []byte("spec"), State: []byte("blob")}), oldInit) {
		t.Error("untraced init carries bytes past the state blob")
	}

	// End to end with tracing disabled the wire carries exactly the old
	// frames: a full epoch must still run, and record nothing.
	trace.Default.SetEnabled(false)
	defer trace.Default.SetEnabled(true)
	trace.Default.Reset()
	w := startWorker(t)
	c, err := Dial([]string{w.addr()}, testConfig(1), worldSpec(21), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, seedSet := testSeed(21)
	if err := c.Seed(seedSet); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatalf("epoch with tracing disabled: %v", err)
	}
	if got := trace.Default.Snapshot(); len(got) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(got))
	}
}
