package store

import (
	"bytes"
	"reflect"
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
		Feats: features.NewSet(features.Value{Key: features.KeyHTTPTitle, Val: "a|b=c%d"},
			features.Value{Key: features.KeyHTTPServer, Val: "plain"}),
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
	if s := (&StringTable{strs: []string{"a"}, left: 1}).Feats(d); d.Done() != nil || len(s) != 2 {
		t.Fatalf("ascending Table-1 keys refused: %v", d.Err())
	}
	for _, c := range badFeatSets {
		d := wire.NewDec("GPSC", c.set)
		(&StringTable{strs: []string{"a"}, left: 1}).Feats(d)
		if !wire.IsKind(d.Err(), wire.Implausible) {
			t.Errorf("%s: Feats error %v; want Implausible", c.name, d.Err())
		}
	}
}

// TestStringTableNumbering: a table reads back only as AppendInterned
// numbers it. Each string is first named by the next unused index, and
// every string is named by some set, so a skipped-ahead index, a
// duplicated unused string and a table with no set to name it are
// Implausible.
func TestStringTableNumbering(t *testing.T) {
	sets := []features.Set{
		features.NewSet(features.Value{Key: features.KeyProtocol, Val: "a"}),
		features.NewSet(features.Value{Key: features.KeyProtocol, Val: "b"},
			features.Value{Key: features.KeyTLSCertHash, Val: "a"}),
		nil,
	}
	var canonical wire.Enc
	AppendInterned(&canonical, len(sets), func(_ *wire.Enc, i int) features.Set { return sets[i] })
	table := func(n int, strs ...string) wire.Enc {
		var e wire.Enc
		e.Uvarint(uint64(len(strs)))
		for _, s := range strs {
			e.Str(s)
		}
		e.Uvarint(uint64(n))
		return e
	}
	cases := []struct {
		name string
		data []byte
		ok   bool
	}{
		{"AppendInterned's", canonical, true},
		{"skipped-ahead index", append(table(2, "a", "b"), 1, 1, 1, 1, 1, 0), false},
		{"duplicated unused string", append(table(1, "a", "a"), 1, 1, 0), false},
		{"no set", table(0, "a"), false},
	}
	for _, c := range cases {
		d := wire.NewDec("GPSC", c.data)
		st, n := ReadStringTable(d, 8)
		var got []features.Set
		for i := 0; i < n && d.Err() == nil; i++ {
			got = append(got, st.Feats(d))
		}
		err := d.Done()
		if c.ok && (err != nil || !reflect.DeepEqual(got, sets)) {
			t.Errorf("%s table read back as %v, %v; want %v", c.name, got, err, sets)
		}
		if !c.ok && !wire.IsKind(err, wire.Implausible) {
			t.Errorf("%s: error %v; want Implausible", c.name, err)
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
