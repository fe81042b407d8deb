package main

import (
	"encoding/json"
	"fmt"
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
		logEpoch(continuous.EpochStats{Epoch: 3, KnownSize: 1200, Verified: 1100}, 42*time.Millisecond, time.Millisecond)
	})
	if errw != "" {
		t.Errorf("epoch progress leaked to stderr: %q", errw)
	}
	for _, want := range []string{"level=info", "component=gpsd", "event=epoch", "epoch=3", "known=1200",
		"epoch_sec=0.042", `msg="epoch complete"`} {
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

	out, _ := captureStd(t, func() { logEpoch(continuous.EpochStats{Epoch: 7}, time.Millisecond, 0) })
	obj = nil
	if err := json.Unmarshal([]byte(out), &obj); err != nil {
		t.Fatalf("epoch line is not JSON under -log-json: %q (%v)", out, err)
	}
	if obj["event"] != "epoch" || obj["epoch"] != float64(7) || obj["epoch_sec"] != 0.001 {
		t.Errorf("epoch JSON fields = %v; want event epoch, epoch 7 and epoch_sec 0.001 as numbers", obj)
	}
}

// TestOneEpochRecord runs the daemon for two epochs in each log mode and
// counts its epoch records: one per epoch, from the one logger. Under
// -log-json every stdout line is that logger's JSON, and the record's
// counts and seconds are JSON numbers.
func TestOneEpochRecord(t *testing.T) {
	defer trace.SetLogJSON(false)
	for _, mode := range []string{"text", "json"} {
		args := []string{"-seed", "5", "-prefixes", "2", "-density", "0.02",
			"-seed-fraction", "0.05", "-parallelism", "1", "-shards", "2", "-epochs", "2"}
		if mode == "json" {
			args = append(args, "-log-json")
		}
		f, err := parseArgs(args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var code int
		out, errw := captureStd(t, func() { code = runDaemon(f) })
		if code != 0 {
			t.Fatalf("%s: daemon exited %d: %s", mode, code, errw)
		}
		var records []string
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if strings.Contains(line, "epoch complete") || strings.Contains(line, `"event":"epoch"`) {
				records = append(records, line)
			}
			if mode == "json" && !json.Valid([]byte(line)) {
				t.Errorf("json: stdout line is not JSON: %q", line)
			}
		}
		if len(records) != 2 {
			t.Fatalf("%s: %d epoch records for 2 epochs:\n%s", mode, len(records), strings.Join(records, "\n"))
		}
		for i, line := range records {
			if mode == "text" {
				if !strings.Contains(line, fmt.Sprintf("event=epoch epoch=%d ", i+1)) || !strings.Contains(line, " epoch_sec=") {
					t.Errorf("text: record %d = %q; want event=epoch epoch=%d and epoch_sec", i, line, i+1)
				}
				continue
			}
			var obj map[string]any
			if err := json.Unmarshal([]byte(line), &obj); err != nil {
				t.Fatal(err)
			}
			if obj["event"] != "epoch" || obj["epoch"] != float64(i+1) {
				t.Errorf("json: record %d = %v; want event epoch, epoch %d", i, obj, i+1)
			}
			for _, k := range []string{"epoch", "known", "reverify_probes", "alive_frac", "reverify_sec", "epoch_sec"} {
				if _, ok := obj[k].(float64); !ok {
					t.Errorf("json: record %d: %s = %#v; want a JSON number", i, k, obj[k])
				}
			}
		}
	}
}
