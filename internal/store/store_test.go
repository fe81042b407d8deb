package store

import (
	"bytes"
	"strings"
	"testing"

	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/metrics"
	"gps/internal/netmodel"
	"gps/internal/predict"
	"gps/internal/wire"
)

func sampleDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	u := netmodel.Generate(netmodel.TestParams(55))
	d := dataset.SnapshotCensys(u, 40)
	sortRecords(d.Records)
	return d
}

func recordsEqual(t *testing.T, a, b []dataset.Record) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.IP != rb.IP || ra.Port != rb.Port || ra.Proto != rb.Proto ||
			ra.ASN != rb.ASN || ra.TTL != rb.TTL {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
		if len(ra.Feats) != len(rb.Feats) {
			t.Fatalf("record %d feature counts differ", i)
		}
		for k, v := range ra.Feats {
			if rb.Feats[k] != v {
				t.Fatalf("record %d feature %v differs: %q vs %q", i, k, v, rb.Feats[k])
			}
		}
	}
}

func TestDatasetCSVRoundTrip(t *testing.T) {
	d := sampleDataset(t)
	var buf bytes.Buffer
	if err := WriteDatasetCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatasetCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, d.Records, back.Records)
}

func TestFeatureEscaping(t *testing.T) {
	d := &dataset.Dataset{Records: []dataset.Record{{
		IP: 1, Port: 80, Proto: features.ProtocolHTTP,
		Feats: features.Set{
			features.KeyHTTPTitle:  "a|b=c%d",
			features.KeyHTTPServer: "plain",
		},
	}}}
	var buf bytes.Buffer
	if err := WriteDatasetCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatasetCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, d.Records, back.Records)
}

func TestDatasetBinaryRoundTrip(t *testing.T) {
	d := sampleDataset(t)
	var buf bytes.Buffer
	n, err := WriteDatasetBinary(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(buf.Len()) {
		t.Errorf("byte count %d != buffer %d", n, buf.Len())
	}
	back, err := ReadDatasetBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, d.Records, back.Records)
	if back.Name != d.Name || back.SpaceSize != d.SpaceSize ||
		back.SampleFraction != d.SampleFraction ||
		back.CollectionProbes != d.CollectionProbes {
		t.Error("metadata lost in binary round trip")
	}
	if len(back.Ports) != len(d.Ports) {
		t.Fatalf("port list lost: %d vs %d", len(back.Ports), len(d.Ports))
	}
	for i := range d.Ports {
		if back.Ports[i] != d.Ports[i] {
			t.Fatal("port list corrupted")
		}
	}
}

func TestBinarySmallerThanCSV(t *testing.T) {
	d := sampleDataset(t)
	var csvBuf, binBuf bytes.Buffer
	if err := WriteDatasetCSV(&csvBuf, d); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteDatasetBinary(&binBuf, d); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len() >= csvBuf.Len() {
		t.Errorf("binary (%d B) not smaller than CSV (%d B); string interning broken?",
			binBuf.Len(), csvBuf.Len())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("GPS"),
		[]byte("NOPE....."),
		append([]byte("GPSD"), 99), // bad version
	}
	for _, c := range cases {
		if _, err := ReadDatasetBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
	// Truncation mid-stream must error, not panic.
	d := sampleDataset(t)
	var buf bytes.Buffer
	WriteDatasetBinary(&buf, d)
	for _, cut := range []int{5, 20, buf.Len() / 2} {
		if _, err := ReadDatasetBinary(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// badFeatSets are interned feature sets AppendInterned never writes, each
// as nfeats u8 + (key u8, string index uvarint)* over a one-string table.
var badFeatSets = []struct {
	name string
	set  []byte
}{
	{"descending keys", []byte{2, 11, 0, 10, 0}},
	{"duplicate key", []byte{2, 10, 0, 10, 0}},
	{"KeyNone", []byte{1, 0, 0}},
	{"key past Table 1", []byte{1, 40, 0}},
}

// gpsdWithFeatSet is a one-record GPSD file whose record carries the
// given interned feature set.
func gpsdWithFeatSet(tb testing.TB, set []byte) []byte {
	tb.Helper()
	d := &dataset.Dataset{Records: []dataset.Record{{IP: 1, Port: 80,
		Feats: features.Set{features.KeyProtocol: "a"}}}}
	var buf bytes.Buffer
	if _, err := WriteDatasetBinary(&buf, d); err != nil {
		tb.Fatal(err)
	}
	b := buf.Bytes()
	tail := []byte{1, uint8(features.KeyProtocol), 0}
	if !bytes.HasSuffix(b, tail) {
		tb.Fatalf("GPSD record does not end in its feature set %v: % x", tail, b)
	}
	return append(b[:len(b)-len(tail):len(b)-len(tail)], set...)
}

// TestFeatsRefusesNonCanonicalSets: the feature-set reader GPSD and GPSC
// share accepts only strictly ascending Table-1 keys, so an accepted set
// re-encodes to the bytes it was read from.
func TestFeatsRefusesNonCanonicalSets(t *testing.T) {
	ok := []byte{2, uint8(features.KeyProtocol), 0, uint8(features.NumKeys), 0}
	if _, err := ReadDatasetBinary(bytes.NewReader(gpsdWithFeatSet(t, ok))); err != nil {
		t.Fatalf("ascending Table-1 keys refused: %v", err)
	}
	for _, c := range badFeatSets {
		d := wire.NewDec("GPSD", c.set)
		StringTable{"a"}.Feats(d)
		if !wire.IsKind(d.Err(), wire.Implausible) {
			t.Errorf("%s: Feats error %v; want Implausible", c.name, d.Err())
		}
		if _, err := ReadDatasetBinary(bytes.NewReader(gpsdWithFeatSet(t, c.set))); !wire.IsKind(err, wire.Implausible) {
			t.Errorf("%s: ReadDatasetBinary error %v; want Implausible", c.name, err)
		}
	}
}

func TestPredictionsCSVRoundTrip(t *testing.T) {
	preds := []predict.Prediction{
		{IP: 0x01020304, Port: 80, P: 0.75},
		{IP: 0x05060708, Port: 8443, P: 1e-5},
	}
	var buf bytes.Buffer
	if err := WritePredictionsCSV(&buf, preds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPredictionsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(preds) {
		t.Fatalf("count %d", len(back))
	}
	for i := range preds {
		if back[i] != preds[i] {
			t.Errorf("prediction %d: %+v vs %+v", i, back[i], preds[i])
		}
	}
}

func TestWriteCurveCSV(t *testing.T) {
	c := metrics.Curve{
		{Probes: 100, Found: 5, FracAll: 0.5, FracNorm: 0.25, Precision: 0.05, ScansUnits: 0.1},
	}
	var buf bytes.Buffer
	if err := WriteCurveCSV(&buf, "gps", c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "series,probes") || !strings.Contains(out, "gps,100") {
		t.Errorf("unexpected CSV:\n%s", out)
	}
}

func TestCountingWriter(t *testing.T) {
	var sink bytes.Buffer
	cw := &CountingWriter{W: &sink}
	cw.Write([]byte("hello"))
	cw.Write([]byte(" world"))
	if cw.N != 11 {
		t.Errorf("counted %d bytes; want 11", cw.N)
	}
}
