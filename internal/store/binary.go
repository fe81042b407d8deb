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
		recs.U8(uint8(len(s)))
		for _, v := range s {
			id, ok := index[v.Val]
			if !ok {
				id = uint64(len(index))
				index[v.Val] = id
				table.Str(v.Val)
			}
			recs.U8(uint8(v.Key))
			recs.Uvarint(id)
		}
	}
	e.Uvarint(uint64(len(index)))
	*e = append(append(*e, table...), recs...)
}

// StringTable is an AppendInterned table as read back. used counts the
// strings the sets read so far have named, always a prefix of strs under
// AppendInterned's numbering, and left the sets still to read.
type StringTable struct {
	strs       []string
	used, left int
}

// ReadStringTable reads an AppendInterned table and the record count
// after it, at most maxRecords, which it returns: Feats must then read
// each record's set. A string equal to an earlier one is Implausible:
// AppendInterned writes each distinct string once.
func ReadStringTable(d *wire.Dec, maxRecords uint64) (*StringTable, int) {
	d.At("string table", -1)
	t := &StringTable{}
	n := d.Count(d.Uvarint(), maxStrings)
	seen := make(map[string]bool, min(n, 1<<16)) // n is not yet proven
	for i := 0; i < n && d.Err() == nil; i++ {
		d.At("string", i)
		s := d.Str(maxString)
		if seen[s] {
			d.Fail(wire.Implausible, fmt.Errorf("string %q repeats an earlier one", s))
			break
		}
		seen[s] = true
		t.strs = append(t.strs, s)
	}
	d.At("string table", -1)
	t.left = d.Count(d.Uvarint(), maxRecords)
	t.checkUsed(d)
	return t, t.left
}

// Feats reads one AppendInterned feature set. A key that is not a
// Table-1 key above the one before it (so never KeyNone, a repeat or a
// descent), an index past the strings used so far other than the next
// one, and, once the last set is read, a string no set used are
// Implausible: AppendInterned writes none of them.
func (t *StringTable) Feats(d *wire.Dec) features.Set {
	nf := int(d.U8())
	var s features.Set
	if nf > 0 {
		s = make([]features.Value, 0, nf)
	}
	prev := features.KeyNone
	for j := 0; j < nf && d.Err() == nil; j++ {
		key, id := features.Key(d.U8()), d.Uvarint()
		if key <= prev || int(key) > features.NumKeys {
			d.Fail(wire.Implausible, fmt.Errorf("feature key %d after %d; want strictly ascending Table-1 keys", key, prev))
			break
		}
		prev = key
		if id > uint64(t.used) || id >= uint64(len(t.strs)) {
			d.Fail(wire.Implausible, fmt.Errorf("string index %d of %d, %d used before it", id, len(t.strs), t.used))
			break
		}
		if id == uint64(t.used) {
			t.used++
		}
		s = append(s, features.Value{Key: key, Val: t.strs[id]})
	}
	t.left--
	t.checkUsed(d)
	return s
}

// checkUsed refuses a table some string of which no set used, once no
// set is left to read.
func (t *StringTable) checkUsed(d *wire.Dec) {
	if t.left == 0 && t.used < len(t.strs) {
		d.Fail(wire.Implausible, fmt.Errorf("string %d of %d used by no set", t.used, len(t.strs)))
	}
}
