package continuous

import (
	"bytes"
	"fmt"
	"io"

	"gps/internal/dataset"
	"gps/internal/metrics"
	"gps/internal/netmodel"
	"gps/internal/store"
	"gps/internal/wire"
)

// Checkpoint format:
//
//	magic "GPSC" | version u8
//	epoch uvarint
//	history: uvarint count, then per epoch the EpochStats counters as
//	  uvarints (epoch, reverifyProbes, discoveryProbes, verified, lost,
//	  evicted, newFound, refreshed, trainSize, knownSize, and the five
//	  Freshness counters)
//	known set: uvarint byte length + a store binary dataset holding the
//	  known records sorted by (IP, port)
//	per record, in dataset order: firstSeen, lastSeen, stale uvarints
//
// The known records reuse internal/store's compact dataset encoding
// (string-table interning of feature values), so checkpoints stay small
// no matter how many fleet hosts share identical banners. The dataset
// blob is length-prefixed so the surrounding reader keeps its position.

const (
	checkpointMagic   = "GPSC"
	checkpointVersion = 1

	maxHistory  = 1 << 24
	maxKnownSet = 1 << 28
)

// WriteCheckpoint serializes the state.
func WriteCheckpoint(w io.Writer, st *State) error {
	var e wire.Enc
	e.Header(checkpointMagic, checkpointVersion)
	e.Uvarint(uint64(st.Epoch))

	e.Uvarint(uint64(len(st.History)))
	for _, h := range st.History {
		for _, v := range statsCounters(h) {
			e.Uvarint(v)
		}
	}

	// The known set as a store binary dataset, deterministically ordered.
	keys := netmodel.SortedKeys(st.Known)
	d := &dataset.Dataset{Name: "continuous-checkpoint", Records: make([]dataset.Record, len(keys))}
	for i, k := range keys {
		d.Records[i] = st.Known[k].Rec
	}
	var blob bytes.Buffer
	if _, err := store.WriteDatasetBinary(&blob, d); err != nil {
		return fmt.Errorf("continuous: encoding known set: %w", err)
	}
	e.Blob(blob.Bytes())

	for _, k := range keys {
		known := st.Known[k]
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
	st := &State{Known: make(map[netmodel.Key]*Entry)}
	st.Epoch = int(d.Uvarint())

	// History grows as epochs prove to exist; the declared count sizes
	// nothing, so a few hostile bytes cannot demand gigabytes.
	nHist := d.Count(d.Uvarint(), maxHistory)
	st.History = make([]EpochStats, 0, min(nHist, 1<<10))
	for i := 0; i < nHist && d.Err() == nil; i++ {
		d.At("history", i)
		var vals [15]uint64
		for j := range vals {
			vals[j] = d.Uvarint()
		}
		st.History = append(st.History, statsFromCounters(vals))
	}

	d.At("known set", -1)
	blob := d.Blob(maxKnownSet)
	if d.Err() != nil {
		return nil, d.Err()
	}
	known, err := store.ReadDatasetBinary(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("continuous: decoding known set: %w", err)
	}
	for i, rec := range known.Records {
		d.At("entry", i)
		st.Known[rec.Key()] = &Entry{
			Rec: rec, FirstSeen: int(d.Uvarint()), LastSeen: int(d.Uvarint()), Stale: int(d.Uvarint()),
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// statsCounters flattens EpochStats for serialization; statsFromCounters
// is its inverse. Order matters and is frozen by checkpointVersion.
func statsCounters(h EpochStats) [15]uint64 {
	return [15]uint64{
		uint64(h.Epoch), h.ReverifyProbes, h.DiscoveryProbes,
		uint64(h.Verified), uint64(h.Lost), uint64(h.Evicted),
		uint64(h.NewFound), uint64(h.Refreshed),
		uint64(h.TrainSize), uint64(h.KnownSize),
		uint64(h.Freshness.Known), uint64(h.Freshness.Fresh),
		uint64(h.Freshness.Stale), uint64(h.Freshness.Checked),
		uint64(h.Freshness.Alive),
	}
}

func statsFromCounters(v [15]uint64) EpochStats {
	return EpochStats{
		Epoch: int(v[0]), ReverifyProbes: v[1], DiscoveryProbes: v[2],
		Verified: int(v[3]), Lost: int(v[4]), Evicted: int(v[5]),
		NewFound: int(v[6]), Refreshed: int(v[7]),
		TrainSize: int(v[8]), KnownSize: int(v[9]),
		Freshness: metrics.Freshness{
			Known: int(v[10]), Fresh: int(v[11]), Stale: int(v[12]),
			Checked: int(v[13]), Alive: int(v[14]),
		},
	}
}
