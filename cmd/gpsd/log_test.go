package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"gps/internal/continuous"
	"gps/internal/trace"
)

// captureStd runs fn with os.Stdout and os.Stderr swapped for pipes and
// returns what each received: the logger reads both at emit time.
func captureStd(t *testing.T, fn func()) (out, errw string) {
	t.Helper()
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	prevOut, prevErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outW, errW
	defer func() { os.Stdout, os.Stderr = prevOut, prevErr }()
	fn()
	outW.Close()
	errW.Close()
	ob, _ := io.ReadAll(outR)
	eb, _ := io.ReadAll(errR)
	return string(ob), string(eb)
}

// TestLogRouting pins the structured logger's stream contract: epoch
// progress and other info-level lines go to the stdout writer, warnings
// (empty shards) to the stderr writer, and every line carries the
// component and level fields.
func TestLogRouting(t *testing.T) {
	line, errw := captureStd(t, func() {
		logEpoch(continuous.EpochStats{Epoch: 3, KnownSize: 1200, Verified: 1100}, 42*time.Millisecond)
	})
	if errw != "" {
		t.Errorf("epoch progress leaked to stderr: %q", errw)
	}
	for _, want := range []string{"level=info", "component=gpsd", "epoch=3", "known=1200", `msg="epoch complete"`} {
		if !strings.Contains(line, want) {
			t.Errorf("epoch line missing %q: %q", want, line)
		}
	}

	out, w := captureStd(t, func() { warnEmptyShards([]int{2, 5}) })
	if out != "" {
		t.Errorf("empty-shard warning leaked to stdout: %q", out)
	}
	if !strings.Contains(w, "level=warn") || !strings.Contains(w, "[2 5]") {
		t.Errorf("empty-shard warning = %q; want level=warn naming shards [2 5]", w)
	}
}

// TestLogJSONFlag: -log-json switches the stream to one JSON object per
// line, applied during parseArgs so the first line after it obeys it.
func TestLogJSONFlag(t *testing.T) {
	defer trace.SetLogJSON(false)
	if _, err := parseArgs([]string{"worker", "-log-json", "-listen", "127.0.0.1:0"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	_, errw := captureStd(t, func() { warnEmptyShards([]int{2}) })
	var obj map[string]any
	if err := json.Unmarshal([]byte(errw), &obj); err != nil {
		t.Fatalf("warning is not JSON under -log-json: %q (%v)", errw, err)
	}
	if obj["level"] != "warn" || obj["component"] != "gpsd" {
		t.Errorf("warning JSON fields = %v", obj)
	}

	out, _ := captureStd(t, func() { logEpoch(continuous.EpochStats{Epoch: 7}, time.Millisecond) })
	if err := json.Unmarshal([]byte(out), &obj); err != nil {
		t.Fatalf("epoch line is not JSON under -log-json: %q (%v)", out, err)
	}
	if obj["epoch"] != "7" && obj["epoch"] != float64(7) {
		t.Errorf("epoch JSON fields = %v", obj)
	}
}
