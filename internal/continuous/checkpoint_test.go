package continuous_test

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/shard"
	"gps/internal/wire"
	"gps/internal/wire/wiretest"
)

// unorderedStates break a run's invariants: two records swapped, one key
// listed twice, and an entry last seen after the state's epoch (the
// re-verification order's counting pass is sized by LastSeen).
// WriteCheckpoint writes State.Known as it is, so they encode to the GPSC
// files a reader must refuse.
func unorderedStates() map[string]*continuous.State {
	lo := continuous.Entry{Rec: dataset.Record{IP: 10, Port: 80}, LastSeen: 1}
	hi := continuous.Entry{Rec: dataset.Record{IP: 10, Port: 443}, LastSeen: 1}
	return map[string]*continuous.State{
		"swapped":  {Epoch: 1, Known: []continuous.Entry{hi, lo}},
		"repeated": {Epoch: 1, Known: []continuous.Entry{lo, lo}},
		"late":     {Epoch: 0, Known: []continuous.Entry{lo, hi}},
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

// TestCheckpointRefusesUnorderedKnownSet: the known set's order is the
// state's invariant and arrives from outside the program, so the GPSC
// reader refuses a set out of key order, with a repeated key or seen
// after its epoch, and the refusal surfaces unchanged through a GPSS
// that embeds the state.
func TestCheckpointRefusesUnorderedKnownSet(t *testing.T) {
	for name, st := range unorderedStates() {
		gpsc := encode(t, func(w *bytes.Buffer) error { return continuous.WriteCheckpoint(w, st) })
		_, err := continuous.ReadCheckpoint(bytes.NewReader(gpsc))
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Kind != wire.Implausible || werr.Format != "GPSC" || werr.Section != "entry" {
			t.Errorf("%s known set returned %v; want a GPSC implausible *wire.Error in entry", name, err)
			continue
		}
		gpss := encode(t, func(w *bytes.Buffer) error { return shard.WriteCheckpoint(w, []*continuous.State{st}) })
		_, err = shard.ReadCheckpoint(bytes.NewReader(gpss))
		var nested *wire.Error
		if !errors.As(err, &nested) || nested.Error() != werr.Error() {
			t.Errorf("%s known set inside a GPSS returned %v; want the nested %v", name, err, werr)
		}
	}
}

// FuzzReadCheckpoint drives arbitrary bytes through the GPSC reader (and,
// through its known-set blob, the GPSD one). No input may panic or size
// an allocation from an unproven count; every refusal is a *wire.Error
// naming the format that broke; and an accepted state is canonical after
// one write: write → read → write reproduces the bytes.
func FuzzReadCheckpoint(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden/GPSC.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])                 // cut inside the known set
	f.Add(append(append([]byte{}, golden...), 0)) // trailing byte
	f.Add([]byte("GPSX\x01junk"))                 // foreign magic
	f.Add([]byte("GPSC\x02\x07\xff\xff\xff\x7f")) // a 256 MiB known set, none present
	for _, name := range []string{"swapped", "repeated", "late"} {
		st := unorderedStates()[name]
		f.Add(encode(f, func(w *bytes.Buffer) error { return continuous.WriteCheckpoint(w, st) }))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.FuzzCanonical(t, data, "GPSC GPSD", continuous.ReadCheckpoint, continuous.WriteCheckpoint)
	})
}
