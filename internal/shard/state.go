package shard

import (
	"bytes"
	"fmt"
	"slices"

	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/wire"
)

// Per-shard state extraction: EncodeState produces one shard's state as
// a standalone blob (exactly one continuous checkpoint), DecodeState
// parses it back. The transport's placement RPC (msgInit — seeding,
// resume, failover and migration alike) ships this blob, and gpsd's
// checkpoint holds one over the merged run (Merge), so a migrated shard's
// state is byte-compatible with a checkpointed one (and a new GPSC
// version is a new transport.Version). An epoch result ships no state:
// it carries the step (EncodeStep) from the state the coordinator placed.

// EncodeState serializes one shard's continuous state as a standalone
// blob — the unit of live migration.
func EncodeState(st *continuous.State) ([]byte, error) {
	var buf bytes.Buffer
	if err := continuous.WriteCheckpoint(&buf, st); err != nil {
		return nil, fmt.Errorf("shard: encoding state: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeState parses EncodeState output.
func DecodeState(blob []byte) (*continuous.State, error) {
	st, err := continuous.ReadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("shard: decoding state: %w", err)
	}
	return st, nil
}

// Epoch-step format, what an epoch result carries instead of a state:
//
//	baseEpoch uvarint | baseCount uvarint | epoch uvarint
//	ops blob: per base entry an op u8; opFields adds LastSeen, Stale uvarints
//	puts: continuous.AppendKnown of the entries base lacks or holds with
//	  another record or FirstSeen, a strict (IP, port) run
//
// Ops are defined by field values alone, so ApplyStep(b, EncodeStep(b, n))
// is n for any two strict runs, n past b's epoch.
const stepFormat = "step"

const (
	opKept    = iota // the base entry, unchanged
	opSeen           // LastSeen is the step's epoch, Stale 0
	opFields         // the new LastSeen and Stale follow
	opDropped        // gone, or replaced by a put
)

// EncodeStep encodes the step from base to next in one merge-join.
func EncodeStep(base, next *continuous.State) []byte {
	ops := make(wire.Enc, 0, len(base.Known)+16)
	var puts []continuous.Entry
	j := 0
	for _, b := range base.Known {
		for ; j < len(next.Known) && next.Known[j].Rec.Key().Compare(b.Rec.Key()) < 0; j++ {
			puts = append(puts, next.Known[j])
		}
		if j == len(next.Known) || next.Known[j].Rec.Key() != b.Rec.Key() {
			ops.U8(opDropped)
			continue
		}
		n := next.Known[j]
		j++
		switch {
		case !sameRecord(b.Rec, n.Rec) || b.FirstSeen != n.FirstSeen:
			ops.U8(opDropped)
			puts = append(puts, n)
		case b.LastSeen == n.LastSeen && b.Stale == n.Stale:
			ops.U8(opKept)
		case n.LastSeen == next.Epoch && n.Stale == 0:
			ops.U8(opSeen)
		default:
			ops.U8(opFields)
			ops.Uvarint(uint64(n.LastSeen))
			ops.Uvarint(uint64(n.Stale))
		}
	}
	e := make(wire.Enc, 0, len(ops)+64*(len(puts)+1))
	e.Uvarint(uint64(base.Epoch))
	e.Uvarint(uint64(len(base.Known)))
	e.Uvarint(uint64(next.Epoch))
	e.Blob(ops)
	continuous.AppendKnown(&e, append(puts, next.Known[j:]...))
	return e
}

// sameRecord reports whether two records of one key agree on the rest.
func sameRecord(a, b dataset.Record) bool {
	return a.Proto == b.Proto && a.ASN == b.ASN && a.TTL == b.TTL && slices.Equal(a.Feats, b.Feats)
}

// ApplyStep rebuilds from base the state a step encodes, sharing base's
// records and feature sets (no state is written once built). A malformed
// step is a *wire.Error with Format "step": another base epoch or entry
// count, an epoch not past base's, too few or too many ops, an unknown op,
// trailing bytes, a put out of order or on a kept base entry's key, and
// every entry continuous.ReadCheckpoint refuses.
func ApplyStep(base *continuous.State, step []byte) (*continuous.State, error) {
	d := wire.NewDec(stepFormat, step)
	d.At("header", -1)
	baseEpoch, baseCount, epoch := d.Uvarint(), d.Uvarint(), int(d.Uvarint())
	switch { // after a failed read: zeros, and Fail keeps the first failure
	case baseEpoch != uint64(base.Epoch) || baseCount != uint64(len(base.Known)):
		d.Fail(wire.Implausible, fmt.Errorf("step from epoch %d with %d entries; the base is epoch %d with %d",
			baseEpoch, baseCount, base.Epoch, len(base.Known)))
	case epoch <= base.Epoch || epoch > continuous.MaxEpoch: // a wrapped uvarint is negative
		d.Fail(wire.Implausible, fmt.Errorf("step to epoch %d from epoch %d, limit %d", epoch, base.Epoch, continuous.MaxEpoch))
	}
	ops := wire.NewDec(stepFormat, d.Blob(uint64(len(step))))
	puts := continuous.ReadKnown(d, epoch)
	if err := d.Done(); err != nil {
		return nil, err
	}
	known := make([]continuous.Entry, 0, len(base.Known)+len(puts))
	p := 0
	for i := 0; i < len(base.Known) && ops.Err() == nil; i++ {
		ops.At("op", i)
		ent := base.Known[i]
		k := ent.Rec.Key()
		for ; p < len(puts) && puts[p].Rec.Key().Compare(k) < 0; p++ {
			known = append(known, puts[p])
		}
		switch op := ops.U8(); op {
		case opDropped:
			continue
		case opKept:
		case opSeen:
			ent.LastSeen, ent.Stale = epoch, 0
		case opFields:
			ent.LastSeen, ent.Stale = int(ops.Uvarint()), int(ops.Uvarint())
			continuous.CheckSeen(ops, &ent, epoch)
		default:
			ops.Fail(wire.Implausible, fmt.Errorf("unknown op %d", op))
		}
		if p < len(puts) && puts[p].Rec.Key() == k {
			ops.Fail(wire.Implausible, fmt.Errorf("put %v, which a kept base entry holds", k))
		}
		known = append(known, ent)
	}
	if ops.More() {
		ops.At("op", len(base.Known))
		ops.Fail(wire.Implausible, fmt.Errorf("ops past the base's %d entries", len(base.Known)))
	}
	if err := ops.Done(); err != nil {
		return nil, err
	}
	return &continuous.State{Epoch: epoch, Known: append(known, puts[p:]...)}, nil
}
