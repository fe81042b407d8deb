package store

import (
	"bytes"
	"strings"
	"testing"

	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/metrics"
	"gps/internal/predict"
	"gps/internal/wire"
)

// TestFeatureEscaping pins a dataset row: keys in Table-1 order, and
// the separators and the escape character escaped inside a value.
func TestFeatureEscaping(t *testing.T) {
	d := &dataset.Dataset{Records: []dataset.Record{{
		IP: 0x01020304, Port: 80, Proto: features.ProtocolHTTP, ASN: 64500, TTL: 57,
		Feats: features.Set{
			features.KeyHTTPTitle:  "a|b=c%d",
			features.KeyHTTPServer: "plain",
		},
	}}}
	var buf bytes.Buffer
	if err := WriteDatasetCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	const want = "ip,port,protocol,asn,ttl,features\n" +
		"1.2.3.4,80,http,64500,57,5=a%7Cb%3Dc%25d|7=plain\n"
	if got := buf.String(); got != want {
		t.Errorf("dataset CSV:\n%s\nwant:\n%s", got, want)
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

// TestFeatsRefusesNonCanonicalSets: the GPSC feature-set reader accepts
// only strictly ascending Table-1 keys, so an accepted set re-encodes to
// the bytes it was read from.
func TestFeatsRefusesNonCanonicalSets(t *testing.T) {
	ok := []byte{2, uint8(features.KeyProtocol), 0, uint8(features.NumKeys), 0}
	d := wire.NewDec("GPSC", ok)
	if s := (StringTable{"a"}).Feats(d); d.Done() != nil || len(s) != 2 {
		t.Fatalf("ascending Table-1 keys refused: %v", d.Err())
	}
	for _, c := range badFeatSets {
		d := wire.NewDec("GPSC", c.set)
		StringTable{"a"}.Feats(d)
		if !wire.IsKind(d.Err(), wire.Implausible) {
			t.Errorf("%s: Feats error %v; want Implausible", c.name, d.Err())
		}
	}
}

// TestPredictionsCSVBytes pins the predictions list: shortest
// round-tripping float text, exponent form for small probabilities.
func TestPredictionsCSVBytes(t *testing.T) {
	preds := []predict.Prediction{
		{IP: 0x01020304, Port: 80, P: 0.75},
		{IP: 0x05060708, Port: 8443, P: 1e-5},
	}
	var buf bytes.Buffer
	if err := WritePredictionsCSV(&buf, preds); err != nil {
		t.Fatal(err)
	}
	const want = "ip,port,probability\n1.2.3.4,80,0.75\n5.6.7.8,8443,1e-05\n"
	if got := buf.String(); got != want {
		t.Errorf("predictions CSV:\n%s\nwant:\n%s", got, want)
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
