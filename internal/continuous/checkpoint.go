package continuous

import (
	"bytes"
	"fmt"
	"io"

	"gps/internal/dataset"
	"gps/internal/store"
	"gps/internal/wire"
)

// Checkpoint format (version 2):
//
//	magic "GPSC" | version u8
//	epoch uvarint
//	known set: uvarint byte length + a store binary dataset holding the
//	  known records in strictly increasing (IP, port) order
//	per record, in dataset order: firstSeen, lastSeen, stale uvarints
//
// The known records reuse internal/store's compact dataset encoding
// (string-table interning of feature values), so checkpoints stay small
// no matter how many fleet hosts share identical banners. The dataset
// blob is length-prefixed so the surrounding reader keeps its position.
// The reader refuses keys out of strict order and lastSeen past the epoch.
// Version 1 also carried every completed epoch's counters; a version-1
// checkpoint is refused as a bad-version *wire.Error, not migrated.

const (
	checkpointMagic   = "GPSC"
	checkpointVersion = 2

	maxKnownSet = 1 << 28
)

// WriteCheckpoint serializes the state.
func WriteCheckpoint(w io.Writer, st *State) error {
	var e wire.Enc
	e.Header(checkpointMagic, checkpointVersion)
	e.Uvarint(uint64(st.Epoch))

	d := &dataset.Dataset{Name: "continuous-checkpoint", Records: make([]dataset.Record, len(st.Known))}
	for i := range st.Known {
		d.Records[i] = st.Known[i].Rec
	}
	var blob bytes.Buffer
	if _, err := store.WriteDatasetBinary(&blob, d); err != nil {
		return fmt.Errorf("continuous: encoding known set: %w", err)
	}
	e.Blob(blob.Bytes())

	for _, known := range st.Known {
		e.Uvarint(uint64(known.FirstSeen))
		e.Uvarint(uint64(known.LastSeen))
		e.Uvarint(uint64(known.Stale))
	}
	_, err := w.Write(e)
	return err
}

// ReadCheckpoint parses WriteCheckpoint output. Malformed input is a
// *wire.Error with Format "GPSC", or "GPSD" when the damage is inside
// the embedded known set.
func ReadCheckpoint(r io.Reader) (*State, error) {
	d := wire.NewReader(checkpointMagic, r)
	d.At("header", -1)
	d.Header(checkpointMagic, checkpointVersion)
	st := &State{Epoch: int(d.Uvarint())}

	d.At("known set", -1)
	blob := d.Blob(maxKnownSet)
	if d.Err() != nil {
		return nil, d.Err()
	}
	known, err := store.ReadDatasetBinary(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("continuous: decoding known set: %w", err)
	}
	st.Known = make([]Entry, len(known.Records))
	for i, rec := range known.Records {
		d.At("entry", i)
		st.Known[i] = Entry{Rec: rec, FirstSeen: int(d.Uvarint()), LastSeen: int(d.Uvarint()), Stale: int(d.Uvarint())}
		if ls := st.Known[i].LastSeen; i > 0 && st.Known[i-1].Rec.Key().Compare(rec.Key()) >= 0 || ls < 0 || ls > st.Epoch {
			d.Fail(wire.Implausible, fmt.Errorf("%v out of key order or last seen at epoch %d of %d", rec.Key(), ls, st.Epoch))
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return st, nil
}
