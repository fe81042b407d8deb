package gps_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/shard"
	"gps/internal/shard/transport"
	"gps/internal/trace"
	"gps/internal/wire"
	"gps/internal/wire/wiretest"
)

// The fixtures behind testdata/golden. Everything is a pure function of a
// fixed seed (math/rand's seeded sequence is frozen by the Go 1 promise),
// so the fixture the goldens were generated from is the fixture the test
// re-encodes. The GPST payload goldens are checked beside their
// unexported encoders in internal/shard/transport, GPS5 in cmd/gpsd.

// goldenRecords are a seed scan's records: a few dozen services, some
// sharing banner values (the string table must intern them), some bare.
func goldenRecords(seed int64, n int) []dataset.Record {
	rng := rand.New(rand.NewSource(seed))
	ports := []uint16{22, 80, 443, 7547, 8080, 65535}
	banners := []string{"nginx", "Apache/2.4.41 (Ubuntu)", "SSH-2.0-OpenSSH_8.2p1", "", "RomPager/4.07 UPnP/1.0"}
	var recs []dataset.Record
	for i := 0; i < n; i++ {
		rec := dataset.Record{
			IP:    asndb.IP(0x0a000000 + uint32(rng.Intn(1<<16))),
			Port:  ports[rng.Intn(len(ports))],
			Proto: features.Protocol(rng.Intn(6)),
			ASN:   asndb.ASN(64500 + rng.Intn(300)),
			TTL:   uint8(32 + rng.Intn(200)),
		}
		if nf := rng.Intn(4); nf > 0 {
			vals := make([]features.Value, nf)
			for j := range vals {
				vals[j].Key = features.Key(1 + rng.Intn(20))
				vals[j].Val = banners[rng.Intn(len(banners))]
			}
			rec.Feats = features.NewSet(vals...) // a repeated key keeps its last value
		}
		recs = append(recs, rec)
	}
	return recs
}

// goldenState is one shard's continuous state over goldenRecords.
func goldenState(seed int64, n int) *continuous.State {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	known := make(map[netmodel.Key]continuous.Entry)
	for _, rec := range goldenRecords(seed, n) {
		first := rng.Intn(5)
		known[rec.Key()] = continuous.Entry{
			Rec: rec, FirstSeen: first, LastSeen: first + rng.Intn(3), Stale: rng.Intn(3),
		}
	}
	st := &continuous.State{Epoch: 7}
	for _, p := range netmodel.SortedPairs(known) {
		st.Known = append(st.Known, p.Value)
	}
	return st
}

// goldenInventory is a merged inventory at one of two consecutive
// epochs: the second drops, adds and ages services relative to the first.
func goldenInventory(next bool) map[netmodel.Key]*continuous.Entry {
	inv := shard.MergeInventories([]*continuous.State{goldenState(11, 48)})
	if !next {
		return inv
	}
	keys := make([]netmodel.Key, 0, len(inv))
	for k := range inv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].IP < keys[j].IP || keys[i].IP == keys[j].IP && keys[i].Port < keys[j].Port
	})
	for i, k := range keys {
		switch i % 5 {
		case 0:
			delete(inv, k)
		case 1:
			inv[k].LastSeen++
			inv[k].Stale = 0
		}
	}
	added := shard.MergeInventories([]*continuous.State{goldenState(12, 6)})
	for k, e := range added {
		inv[k] = e
	}
	return inv
}

func goldenSpans() []trace.SpanRecord {
	start := time.Unix(1700000000, 123456789)
	return []trace.SpanRecord{
		{TraceID: 0xabcdef0123, SpanID: 1, Name: "rpc.epoch", Proc: "worker-a", Start: start, Duration: 1500 * time.Millisecond,
			Attrs: []trace.Attr{{Key: "shard", Value: "2"}, {Key: "epoch", Value: "9"}}},
		{TraceID: 0xabcdef0123, SpanID: 2, Parent: 1, Name: "reverify", Proc: "worker-a", Start: start.Add(time.Millisecond), Duration: 300 * time.Microsecond},
		{TraceID: 0xabcdef0123, SpanID: 3, Parent: 1, Name: "discover", Proc: "worker-a", Start: start.Add(-time.Hour), Duration: 0,
			Attrs: []trace.Attr{{Key: "error", Value: ""}}},
	}
}

func writeTo(write func(*bytes.Buffer) error) ([]byte, error) {
	var buf bytes.Buffer
	err := write(&buf)
	return buf.Bytes(), err
}

func goldenCases() []wiretest.Case {
	return []wiretest.Case{
		{Name: "GPSC",
			Encode: func() ([]byte, error) {
				return writeTo(func(b *bytes.Buffer) error { return continuous.WriteCheckpoint(b, goldenState(2, 40)) })
			},
			Decode: func(b []byte) error { _, err := continuous.ReadCheckpoint(bytes.NewReader(b)); return err }},
		{Name: "GPSV",
			Encode: func() ([]byte, error) {
				return writeTo(func(b *bytes.Buffer) error { return shard.WriteInventory(b, goldenInventory(false)) })
			},
			Decode: func(b []byte) error { _, err := shard.ReadInventory(bytes.NewReader(b)); return err }},
		{Name: "GPSE",
			Encode: func() ([]byte, error) {
				d := shard.ComputeDelta(goldenInventory(false), goldenInventory(true), 41, 42)
				return writeTo(func(b *bytes.Buffer) error { return shard.WriteDelta(b, d) })
			},
			Decode: func(b []byte) error { _, err := shard.ReadDelta(bytes.NewReader(b)); return err }},
		{Name: "GPSP",
			Encode: func() ([]byte, error) {
				return transport.EncodeWorldSpec([]byte("an opaque base world spec"), 300, []int{299, 0, 128, 7}), nil
			},
			Decode: func(b []byte) error { _, _, _, err := transport.DecodeWorldSpec(b); return err }},
		{Name: "spans",
			Encode: func() ([]byte, error) { return trace.EncodeSpans(goldenSpans()), nil },
			Decode: func(b []byte) error { _, err := trace.DecodeSpans(b); return err }},
	}
}

// TestGoldenFormats holds every exported codec to the bytes it wrote
// before the formats moved onto internal/wire, and to a typed truncation
// error at every cut.
func TestGoldenFormats(t *testing.T) {
	cases := goldenCases()
	wiretest.Run(t, "testdata/golden", cases)

	// A golden with no row pins nothing: a format that was deleted must
	// take its .bin with it.
	checked := map[string]bool{"GPS5": true} // cmd/gpsd's TestGoldenCheckpoint
	for _, c := range cases {
		checked[c.Name] = true
	}
	files, err := filepath.Glob("testdata/golden/*.bin")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".bin")
		// GPST-* are internal/shard/transport's TestGoldenPayloads rows.
		if !checked[name] && !strings.HasPrefix(name, "GPST-") {
			t.Errorf("%s has no goldenCases row", f)
		}
	}

	// An old-version golden (testdata/golden/v*/) pins a refusal: the GPSC
	// reader must reject it as a bad version, or it has rotted unread.
	// v3/GPS4.bin is gpsd's TestResumeRefusesGPS4Checkpoint input.
	old, err := filepath.Glob("testdata/golden/v*/*.bin")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range old {
		name := strings.TrimSuffix(filepath.Base(f), ".bin")
		if name == "GPS4" {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, err = continuous.ReadCheckpoint(bytes.NewReader(b))
		if name != "GPSC" || !wire.IsKind(err, wire.BadVersion) {
			t.Errorf("%s is not refused as a bad version by its reader", f)
		}
	}
}
