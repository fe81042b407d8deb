package continuous_test

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/shard"
	"gps/internal/wire"
	"gps/internal/wire/wiretest"
)

// unorderedStates break a run's invariants: two records swapped, one key
// listed twice, an entry last seen after the state's epoch (the
// re-verification order's counting pass is sized by LastSeen), one first
// seen after it was last seen, and a stale count of 2⁶⁴-1, which an int
// reads as negative (eviction would never reach it). WriteCheckpoint
// writes State.Known as it is, so they encode to the GPSC files a reader
// must refuse.
func unorderedStates() map[string]*continuous.State {
	lo := continuous.Entry{Rec: dataset.Record{IP: 10, Port: 80}, LastSeen: 1}
	hi := continuous.Entry{Rec: dataset.Record{IP: 10, Port: 443}, LastSeen: 1}
	reborn, undying := hi, hi
	reborn.FirstSeen = 2
	undying.Stale = -1
	return map[string]*continuous.State{
		"swapped":  {Epoch: 1, Known: []continuous.Entry{hi, lo}},
		"repeated": {Epoch: 1, Known: []continuous.Entry{lo, lo}},
		"late":     {Epoch: 0, Known: []continuous.Entry{lo, hi}},
		"reborn":   {Epoch: 2, Known: []continuous.Entry{lo, reborn}},
		"undying":  {Epoch: 1, Known: []continuous.Entry{lo, undying}},
	}
}

func encode(t testing.TB, write func(*bytes.Buffer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRefusesUnorderedKnownSet: the known set's order and
// counters are the state's invariants and arrive from outside the
// program, so the GPSC reader refuses every unorderedStates case, and the
// refusal surfaces unchanged through a placement blob.
func TestCheckpointRefusesUnorderedKnownSet(t *testing.T) {
	for name, st := range unorderedStates() {
		gpsc := encode(t, func(w *bytes.Buffer) error { return continuous.WriteCheckpoint(w, st) })
		_, err := continuous.ReadCheckpoint(bytes.NewReader(gpsc))
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Kind != wire.Implausible || werr.Format != "GPSC" || werr.Section != "entry" {
			t.Errorf("%s known set returned %v; want a GPSC implausible *wire.Error in entry", name, err)
			continue
		}
		_, err = shard.DecodeState(gpsc)
		var nested *wire.Error
		if !errors.As(err, &nested) || nested.Error() != werr.Error() {
			t.Errorf("%s known set as a placement returned %v; want the nested %v", name, err, werr)
		}
	}
}

// ageless is a state at epoch 2⁴⁰ with an entry last seen there: every
// invariant of its known set holds, but the next epoch's re-verification
// order would size a 2⁴⁰-slot array by its LastSeen.
func ageless() *continuous.State {
	const epoch = 1 << 40
	return &continuous.State{Epoch: epoch, Known: []continuous.Entry{
		{Rec: dataset.Record{IP: 10, Port: 80}, FirstSeen: epoch, LastSeen: epoch},
	}}
}

// TestCheckpointRefusesImplausibleEpoch: a state epoch past 2²⁴ is an
// implausible GPSC header, refused the same way through a placement
// blob, while 2²⁴ itself still reads back.
func TestCheckpointRefusesImplausibleEpoch(t *testing.T) {
	gpsc := encode(t, func(w *bytes.Buffer) error { return continuous.WriteCheckpoint(w, ageless()) })
	_, err := continuous.ReadCheckpoint(bytes.NewReader(gpsc))
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Kind != wire.Implausible || werr.Format != "GPSC" || werr.Section != "header" {
		t.Fatalf("epoch 2⁴⁰ returned %v; want a GPSC implausible *wire.Error in header", err)
	}
	if _, err := shard.DecodeState(gpsc); !errors.As(err, new(*wire.Error)) || !strings.Contains(err.Error(), werr.Error()) {
		t.Errorf("epoch 2⁴⁰ as a placement returned %v; want the nested %v", err, werr)
	}

	last := &continuous.State{Epoch: 1 << 24}
	gpsc = encode(t, func(w *bytes.Buffer) error { return continuous.WriteCheckpoint(w, last) })
	if st, err := continuous.ReadCheckpoint(bytes.NewReader(gpsc)); err != nil || st.Epoch != last.Epoch {
		t.Errorf("epoch 2²⁴ read back as %+v, %v", st, err)
	}
}

// TestCheckpointInternsFeatureValues: a banner every entry shares is
// written once, in the string table, whatever the entry count.
func TestCheckpointInternsFeatureValues(t *testing.T) {
	const banner = "SSH-2.0-OpenSSH_8.2p1 Ubuntu-4ubuntu0.5"
	st := &continuous.State{Epoch: 1}
	for i := 0; i < 100; i++ {
		feats := features.NewSet(features.Value{Key: features.KeySSHBanner, Val: banner})
		rec := dataset.Record{IP: asndb.IP(i), Port: 22, Feats: feats}
		st.Known = append(st.Known, continuous.Entry{Rec: rec, LastSeen: 1})
	}
	gpsc := encode(t, func(w *bytes.Buffer) error { return continuous.WriteCheckpoint(w, st) })
	if n := bytes.Count(gpsc, []byte(banner)); n != 1 {
		t.Errorf("the shared banner appears %d times in a %d-entry checkpoint; want 1", n, len(st.Known))
	}
}

// badFeatSetCheckpoints are one-entry GPSC files whose entry carries a
// feature set the writer never emits: descending keys, a repeated key,
// KeyNone, a key past Table 1.
func badFeatSetCheckpoints(tb testing.TB) [][]byte {
	tb.Helper()
	one := &continuous.State{Epoch: 1, Known: []continuous.Entry{{LastSeen: 1,
		Rec: dataset.Record{IP: 10, Port: 80, Feats: features.NewSet(features.Value{Key: features.KeyProtocol, Val: "a"})}}}}
	gpsc := encode(tb, func(w *bytes.Buffer) error { return continuous.WriteCheckpoint(w, one) })
	tail := []byte{1, uint8(features.KeyProtocol), 0}
	if !bytes.HasSuffix(gpsc, tail) {
		tb.Fatalf("GPSC entry does not end in its feature set %v: % x", tail, gpsc)
	}
	head := gpsc[: len(gpsc)-len(tail) : len(gpsc)-len(tail)]
	var out [][]byte
	for _, set := range [][]byte{{2, 11, 0, 10, 0}, {2, 10, 0, 10, 0}, {1, 0, 0}, {1, 40, 0}} {
		out = append(out, append(head, set...))
	}
	return out
}

// TestCheckpointRefusesNonCanonicalFeatureSet: an entry's feature set
// must hold strictly ascending Table-1 keys, as the writer emits them.
func TestCheckpointRefusesNonCanonicalFeatureSet(t *testing.T) {
	for i, gpsc := range badFeatSetCheckpoints(t) {
		if _, err := continuous.ReadCheckpoint(bytes.NewReader(gpsc)); !wire.IsKind(err, wire.Implausible) {
			t.Errorf("feature set %d returned %v; want a GPSC implausible *wire.Error", i, err)
		}
	}
}

// TestCheckpointSetsAscend: every feature set the GPSC golden reads back
// as is strictly key-ascending, the order the model and the codecs read.
func TestCheckpointSetsAscend(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/golden/GPSC.bin")
	if err != nil {
		t.Fatal(err)
	}
	st, err := continuous.ReadCheckpoint(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, e := range st.Known {
		s := e.Rec.Feats
		for j := 1; j < len(s); j++ {
			if s[j-1].Key >= s[j].Key {
				t.Fatalf("%v: set %v not key-ascending", e.Rec.Key(), s)
			}
		}
		if len(s) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("the golden holds no set of two or more features")
	}
}

// TestCheckpointRefusesNonMinimalVarint: the GPSC golden with its epoch
// (7, one byte) re-encoded in two bytes reads the same value, but is not
// what the writer emits, so the reader refuses it.
func TestCheckpointRefusesNonMinimalVarint(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/golden/GPSC.bin")
	if err != nil {
		t.Fatal(err)
	}
	const at = len("GPSC") + 1 // the epoch follows the magic and version
	if golden[at] != 7 {
		t.Fatalf("golden epoch byte %#x; want 0x07", golden[at])
	}
	long := append(append(append([]byte{}, golden[:at]...), 0x87, 0x00), golden[at+1:]...)
	if _, err := continuous.ReadCheckpoint(bytes.NewReader(golden)); err != nil {
		t.Fatalf("golden refused: %v", err)
	}
	_, err = continuous.ReadCheckpoint(bytes.NewReader(long))
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Kind != wire.Implausible || werr.Section != "header" {
		t.Errorf("two-byte epoch returned %v; want a GPSC implausible *wire.Error in header", err)
	}
}

// handGPSC is a one-entry GPSC file at epoch 1: strs as its string
// table, then 10.0.0.1:80 first seen at 0 and last at 1, with the given
// proto, ASN and TTL and the interned set bytes.
func handGPSC(strs []string, proto, asn, ttl uint64, set ...byte) []byte {
	var e wire.Enc
	e.Header("GPSC", 3)
	e.Uvarint(1)
	e.Uvarint(uint64(len(strs)))
	for _, s := range strs {
		e.Str(s)
	}
	e.Uvarint(1)
	continuous.EncodeKey(&e, netmodel.Key{IP: 0x0a000001, Port: 80})
	for _, v := range []uint64{proto, asn, ttl, 0, 1, 0} {
		e.Uvarint(v)
	}
	return append(e, set...)
}

// dupInTurnGPSC holds "a" twice in its table, each copy first used in turn
// by one of two entries: the numbering holds, and a reader once accepted
// its 46 bytes and re-encoded them to 44.
func dupInTurnGPSC() []byte {
	var e wire.Enc
	e.Header("GPSC", 3)
	e.Uvarint(1)
	e.Uvarint(2)
	e.Str("a")
	e.Str("a")
	e.Uvarint(2)
	for i, port := range []uint16{80, 443} {
		continuous.EncodeKey(&e, netmodel.Key{IP: 0x0a000001, Port: port})
		for _, v := range []uint64{1, 64500, 60, 0, 1, 0} {
			e.Uvarint(v)
		}
		e = append(e, 1, uint8(features.KeyProtocol), byte(i))
	}
	return e
}

// refusedGPSC are hand-built GPSC files no writer emits, each refused by
// one check: a served field past its range (proto past the protocol
// table, ASN past 32 bits, TTL past 8 bits), a string first used out of
// turn, a duplicated string no set uses, a duplicated string sets use in
// turn, and the range faults with an unused duplicate at once in 31 bytes
// that a reader once accepted and re-encoded to 21.
var refusedGPSC = []struct {
	name string
	gpsc []byte
}{
	{"proto", handGPSC(nil, 16, 64500, 60, 0)},
	{"asn", handGPSC(nil, 1, 1<<32, 60, 0)},
	{"ttl", handGPSC(nil, 1, 64500, 256, 0)},
	{"string out of turn", handGPSC([]string{"a", "b"}, 1, 64500, 60, 1, uint8(features.KeyProtocol), 1)},
	{"unused duplicate", handGPSC([]string{"a", "a"}, 1, 64500, 60, 1, uint8(features.KeyProtocol), 0)},
	{"duplicate used in turn", dupInTurnGPSC()},
	{"31 bytes, all of it", handGPSC([]string{"a", "a"}, 257, 1<<33, 263, 0)},
}

// TestCheckpointRefusesHandBuiltFiles: every refusedGPSC file is an
// implausible *wire.Error, while the same entry with in-range fields and
// a table its set uses in turn reads back, its set key-ascending.
func TestCheckpointRefusesHandBuiltFiles(t *testing.T) {
	for _, c := range refusedGPSC {
		if _, err := continuous.ReadCheckpoint(bytes.NewReader(c.gpsc)); !wire.IsKind(err, wire.Implausible) {
			t.Errorf("%s: ReadCheckpoint returned %v; want an implausible *wire.Error", c.name, err)
		}
	}
	if all := refusedGPSC[len(refusedGPSC)-1]; len(all.gpsc) != 31 {
		t.Errorf("%q is %d bytes; want 31", all.name, len(all.gpsc))
	}
	if n := len(dupInTurnGPSC()); n != 46 {
		t.Errorf("the duplicate used in turn is %d bytes; want 46", n)
	}
	good := handGPSC([]string{"a", "b"}, 1, 64500, 60, 2, uint8(features.KeyProtocol), 0, uint8(features.KeyHTTPServer), 1)
	st, err := continuous.ReadCheckpoint(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	want := features.NewSet(features.Value{Key: features.KeyHTTPServer, Val: "b"},
		features.Value{Key: features.KeyProtocol, Val: "a"})
	if got := st.Known[0].Rec.Feats; !slices.Equal(got, want) {
		t.Errorf("set read back as %v; want %v", got, want)
	}
}

// FuzzReadCheckpoint drives arbitrary bytes through the GPSC reader. No
// input may panic or size an allocation from an unproven count; every
// refusal is a *wire.Error naming GPSC; and an accepted state is
// canonical after one write: write → read → write reproduces the bytes.
func FuzzReadCheckpoint(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden/GPSC.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])                     // cut inside the known set
	f.Add(append(append([]byte{}, golden...), 0))     // trailing byte
	f.Add([]byte("GPSX\x01junk"))                     // foreign magic
	f.Add([]byte("GPSC\x03\x07\x80\x80\x80\x80\x01")) // a 2²⁸-string table, no strings present
	// One string, and one entry whose feature names string 1.
	f.Add([]byte("GPSC\x03\x01\x01\x01a\x01\x0a\x00\x00\x01\x00\x16\x00\x00\x00\x00\x01\x00\x01\x0a\x01"))
	for _, st := range unorderedStates() {
		f.Add(encode(f, func(w *bytes.Buffer) error { return continuous.WriteCheckpoint(w, st) }))
	}
	f.Add(encode(f, func(w *bytes.Buffer) error { return continuous.WriteCheckpoint(w, ageless()) }))
	for _, gpsc := range badFeatSetCheckpoints(f) {
		f.Add(gpsc)
	}
	for _, c := range refusedGPSC {
		f.Add(c.gpsc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.FuzzCanonical(t, data, "GPSC", continuous.ReadCheckpoint, continuous.WriteCheckpoint)
	})
}
