package transport

import (
	"testing"

	"gps/internal/trace"
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

// TestTransportTracingDisabled runs a full epoch with the tracer off:
// the frames carry a zero trace context and an empty span batch, and
// nothing is recorded.
func TestTransportTracingDisabled(t *testing.T) {
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
