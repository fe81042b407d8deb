package continuous

import (
	"fmt"
	"io"
	"math"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/store"
	"gps/internal/wire"
)

// Checkpoint format (version 3):
//
//	magic "GPSC" | version u8
//	epoch uvarint
//	string table, entry count uvarint, then per entry in strictly
//	  increasing (IP, port) order: the served fields (EncodeServed) and
//	  the interned feature set (store.AppendInterned)
//
// The reader refuses an epoch past MaxEpoch, keys out of strict order,
// an entry first seen after it was last seen or last seen past the
// epoch, a stale count past the int range, a served field out of its
// range (DecodeServed) and a string table numbered otherwise than
// AppendInterned numbers it (store.StringTable.Feats). Version 1 also
// carried every completed epoch's counters; version 2 nested the known
// records as a whole GPSD dataset. Both are refused as a bad-version
// *wire.Error, not migrated.

const (
	checkpointMagic   = "GPSC"
	checkpointVersion = 3

	maxEntries = 1 << 28
	// MaxEpoch bounds a state's epoch, and so every LastSeen: the next
	// epoch's re-verification order sizes an array by it, 128 MiB at
	// this bound. 2²⁴ one-second epochs are 194 days.
	MaxEpoch = 1 << 24
)

// EncodeServed writes one service as GPSC, GPSV and GPSE all carry it:
//
//	IP u32 | port u16 (big-endian)
//	proto, asn, ttl, firstSeen, lastSeen, stale uvarints
func EncodeServed(w *wire.Enc, k netmodel.Key, e *Entry) {
	EncodeKey(w, k)
	w.Uvarint(uint64(e.Rec.Proto))
	w.Uvarint(uint64(e.Rec.ASN))
	w.Uvarint(uint64(e.Rec.TTL))
	w.Uvarint(uint64(e.FirstSeen))
	w.Uvarint(uint64(e.LastSeen))
	w.Uvarint(uint64(e.Stale))
}

// DecodeServed reads EncodeServed output. A proto past the protocol
// table, an ASN past 32 bits and a TTL past 8 bits are Implausible,
// named by field: EncodeServed writes none of them.
func DecodeServed(d *wire.Dec) (netmodel.Key, Entry) {
	k := DecodeKey(d)
	return k, Entry{
		Rec: dataset.Record{
			IP: k.IP, Port: k.Port,
			Proto: features.Protocol(uvarintTo(d, "proto", uint64(features.NumProtocols))),
			ASN:   asndb.ASN(uvarintTo(d, "asn", math.MaxUint32)),
			TTL:   uint8(uvarintTo(d, "ttl", math.MaxUint8)),
		},
		FirstSeen: int(d.Uvarint()),
		LastSeen:  int(d.Uvarint()),
		Stale:     int(d.Uvarint()),
	}
}

// uvarintTo reads a uvarint that must not exceed max, naming field if
// it does.
func uvarintTo(d *wire.Dec, field string, max uint64) uint64 {
	v := d.Uvarint()
	if v > max {
		d.Fail(wire.Implausible, fmt.Errorf("%s %d, limit %d", field, v, max))
	}
	return v
}

// EncodeKey writes a service key as IP u32 | port u16 (big-endian).
func EncodeKey(w *wire.Enc, k netmodel.Key) {
	w.U32(uint32(k.IP))
	w.U16(k.Port)
}

// DecodeKey reads EncodeKey output.
func DecodeKey(d *wire.Dec) netmodel.Key {
	return netmodel.Key{IP: asndb.IP(d.U32()), Port: d.U16()}
}

// KeyAfter refuses k, the i-th key of a keyed section, as Implausible
// unless it is the section's first or follows prev, the key before it,
// in strict (IP, port) order. Every keyed section of GPSC, GPSV and GPSE
// is written as a strict run; the error names the section and index the
// decoder is at.
func KeyAfter(d *wire.Dec, i int, prev, k netmodel.Key) {
	if i > 0 && prev.Compare(k) >= 0 {
		d.Fail(wire.Implausible, fmt.Errorf("key %v at or before its predecessor %v", k, prev))
	}
}

// WriteCheckpoint serializes the state.
func WriteCheckpoint(w io.Writer, st *State) error {
	var e wire.Enc
	e.Header(checkpointMagic, checkpointVersion)
	e.Uvarint(uint64(st.Epoch))
	AppendKnown(&e, st.Known)
	_, err := w.Write(e)
	return err
}

// AppendKnown appends a strict run of entries as GPSC holds its known set:
// string table, count, then per entry EncodeServed and its interned set.
func AppendKnown(e *wire.Enc, known []Entry) {
	store.AppendInterned(e, len(known), func(w *wire.Enc, i int) features.Set {
		EncodeServed(w, known[i].Rec.Key(), &known[i])
		return known[i].Rec.Feats
	})
}

// ReadCheckpoint parses WriteCheckpoint output. Malformed input is a
// *wire.Error with Format "GPSC".
func ReadCheckpoint(r io.Reader) (*State, error) {
	d := wire.NewReader(checkpointMagic, r)
	d.At("header", -1)
	d.Header(checkpointMagic, checkpointVersion)
	epoch := d.Uvarint()
	if epoch > MaxEpoch {
		d.Fail(wire.Implausible, fmt.Errorf("epoch %d, limit %d", epoch, MaxEpoch))
	}
	st := &State{Epoch: int(epoch), Known: ReadKnown(d, int(epoch))}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// ReadKnown reads AppendKnown output as a state at epoch holds it, making
// every check the format comment lists but the epoch bound.
func ReadKnown(d *wire.Dec, epoch int) []Entry {
	table, n := store.ReadStringTable(d, maxEntries)
	known := make([]Entry, 0, min(n, 1<<16))
	var prev netmodel.Key
	for i := 0; i < n && d.Err() == nil; i++ {
		d.At("entry", i)
		k, e := DecodeServed(d)
		e.Rec.Feats = table.Feats(d)
		KeyAfter(d, i, prev, k)
		prev = k
		CheckSeen(d, &e, epoch)
		known = append(known, e)
	}
	return known
}

// CheckSeen refuses an entry of a state at epoch first seen after it was
// last seen, last seen past the epoch, or stale past the int range.
func CheckSeen(d *wire.Dec, e *Entry, epoch int) {
	if e.FirstSeen < 0 || e.FirstSeen > e.LastSeen || e.LastSeen > epoch || e.Stale < 0 {
		d.Fail(wire.Implausible, fmt.Errorf("%v seen at epochs %d to %d of %d with stale count %d",
			e.Rec.Key(), e.FirstSeen, e.LastSeen, epoch, e.Stale))
	}
}
