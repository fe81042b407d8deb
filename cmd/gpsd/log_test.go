package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gps"
)

// TestLogRouting pins the structured logger's stream contract: epoch
// progress and other info-level lines go to the stdout writer, warnings
// (empty shards) to the stderr writer, and every line carries the
// component and level fields.
func TestLogRouting(t *testing.T) {
	var out, errw bytes.Buffer
	prevOut, prevErr := gps.SetLogOutput(&out, &errw)
	defer gps.SetLogOutput(prevOut, prevErr)

	logEpoch(gps.EpochStats{Epoch: 3, KnownSize: 1200, Verified: 1100}, 42*time.Millisecond)
	if errw.Len() != 0 {
		t.Errorf("epoch progress leaked to stderr: %q", errw.String())
	}
	line := out.String()
	for _, want := range []string{"level=info", "component=gpsd", "epoch=3", "known=1200", `msg="epoch complete"`} {
		if !strings.Contains(line, want) {
			t.Errorf("epoch line missing %q: %q", want, line)
		}
	}

	out.Reset()
	warnEmptyShards([]int{2, 5}, false)
	if out.Len() != 0 {
		t.Errorf("empty-shard warning leaked to stdout: %q", out.String())
	}
	if w := errw.String(); !strings.Contains(w, "level=warn") || !strings.Contains(w, "[2 5]") {
		t.Errorf("empty-shard warning = %q; want level=warn naming shards [2 5]", w)
	}
}

// TestLogJSONFlag: -log-json switches the stream to one JSON object per
// line, applied during parseArgs so the first line after it obeys it.
func TestLogJSONFlag(t *testing.T) {
	defer gps.SetLogJSON(false)
	var out, errw bytes.Buffer
	prevOut, prevErr := gps.SetLogOutput(&out, &errw)
	defer gps.SetLogOutput(prevOut, prevErr)

	if _, err := parseArgs([]string{"worker", "-log-json", "-listen", "127.0.0.1:0"}, &errw); err != nil {
		t.Fatal(err)
	}
	warnEmptyShards([]int{2}, false)
	var obj map[string]any
	if err := json.Unmarshal(errw.Bytes(), &obj); err != nil {
		t.Fatalf("warning is not JSON under -log-json: %q (%v)", errw.String(), err)
	}
	if obj["level"] != "warn" || obj["component"] != "gpsd" {
		t.Errorf("warning JSON fields = %v", obj)
	}

	logEpoch(gps.EpochStats{Epoch: 7}, time.Millisecond)
	if err := json.Unmarshal(out.Bytes(), &obj); err != nil {
		t.Fatalf("epoch line is not JSON under -log-json: %q (%v)", out.String(), err)
	}
	if obj["epoch"] != "7" && obj["epoch"] != float64(7) {
		t.Errorf("epoch JSON fields = %v", obj)
	}
}
