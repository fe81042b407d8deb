package store

import (
	"fmt"

	"gps/internal/features"
	"gps/internal/wire"
)

const (
	maxString  = 1 << 20
	maxStrings = 1 << 28
)

// AppendInterned appends a string table and then n records, each as
// record writes it followed by its feature set, nfeats u8 + (key u8,
// string-table index uvarint)* in ascending key order. It is what makes
// GPSC compact: fleet-scoped banner values appear once no matter how
// many thousands of hosts share them. The table goes first on the wire
// but is only known once every set is interned, so the records are
// encoded to the side and appended after it.
func AppendInterned(e *wire.Enc, n int, record func(w *wire.Enc, i int) features.Set) {
	index := make(map[string]uint64)
	var table, recs wire.Enc
	recs.Uvarint(uint64(n))
	for i := 0; i < n; i++ {
		s := record(&recs, i)
		at, nf := len(recs), 0
		recs.U8(0)
		for k := features.KeyProtocol; nf < len(s) && int(k) <= features.NumKeys; k++ {
			v, ok := s[k]
			if !ok {
				continue
			}
			id, ok := index[v]
			if !ok {
				id = uint64(len(index))
				index[v] = id
				table.Str(v)
			}
			nf++
			recs.U8(uint8(k))
			recs.Uvarint(id)
		}
		recs[at] = uint8(nf)
	}
	e.Uvarint(uint64(len(index)))
	*e = append(append(*e, table...), recs...)
}

// StringTable is an AppendInterned table as read back.
type StringTable []string

// ReadStringTable reads an AppendInterned table.
func ReadStringTable(d *wire.Dec) StringTable {
	d.At("string table", -1)
	var table StringTable
	for i, n := 0, d.Count(d.Uvarint(), maxStrings); i < n && d.Err() == nil; i++ {
		d.At("string", i)
		table = append(table, d.Str(maxString))
	}
	return table
}

// Feats reads one AppendInterned feature set. A key that is not a
// Table-1 key above the one before it (so never KeyNone, a repeat or a
// descent, each of which AppendInterned cannot write) and an index past
// the table are Implausible.
func (t StringTable) Feats(d *wire.Dec) features.Set {
	nf := int(d.U8())
	if nf == 0 {
		return nil
	}
	s := make(features.Set, nf)
	prev := features.KeyNone
	for j := 0; j < nf && d.Err() == nil; j++ {
		key, id := features.Key(d.U8()), d.Uvarint()
		if key <= prev || int(key) > features.NumKeys {
			d.Fail(wire.Implausible, fmt.Errorf("feature key %d after %d; want strictly ascending Table-1 keys", key, prev))
			break
		}
		prev = key
		if id >= uint64(len(t)) {
			d.Fail(wire.Implausible, fmt.Errorf("string index %d of %d", id, len(t)))
			break
		}
		s[key] = t[id]
	}
	return s
}
