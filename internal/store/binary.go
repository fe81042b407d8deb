package store

import (
	"errors"
	"fmt"
	"io"
	"math"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/wire"
)

// Binary dataset format:
//
//	magic "GPSD" | version u8
//	name: uvarint len + bytes
//	spaceSize, collectionProbes: uvarint
//	sampleFraction: float64 bits
//	ports: uvarint count + uvarint deltas (sorted)
//	string table: uvarint count + (uvarint len + bytes)*
//	records: uvarint count, then per record:
//	  ip u32 | port u16 | proto u8 | asn uvarint | ttl u8
//	  nfeats u8 + (key u8, string-table index uvarint)*
//
// Feature values are interned through the string table, which is what
// makes the format compact: fleet-scoped banner values appear once no
// matter how many thousands of hosts share them.

const (
	binaryMagic   = "GPSD"
	binaryVersion = 1

	maxPorts   = 1 << 16
	maxString  = 1 << 20
	maxStrings = 1 << 28
	maxRecords = 1 << 28
)

// WriteDatasetBinary writes the dataset in the compact binary format and
// returns the number of bytes written.
func WriteDatasetBinary(w io.Writer, d *dataset.Dataset) (uint64, error) {
	var e wire.Enc
	e.Header(binaryMagic, binaryVersion)
	e.Str(d.Name)
	e.Uvarint(d.SpaceSize)
	e.Uvarint(d.CollectionProbes)
	e.U64(math.Float64bits(d.SampleFraction))

	e.Uvarint(uint64(len(d.Ports)))
	prev := uint64(0)
	for _, p := range d.Ports {
		e.Uvarint(uint64(p) - prev)
		prev = uint64(p)
	}

	AppendInterned(&e, len(d.Records), func(w *wire.Enc, i int) features.Set {
		r := &d.Records[i]
		w.U32(uint32(r.IP))
		w.U16(r.Port)
		w.U8(uint8(r.Proto))
		w.Uvarint(uint64(r.ASN))
		w.U8(r.TTL)
		return r.Feats
	})

	n, err := w.Write(e)
	return uint64(n), err
}

// ReadDatasetBinary parses WriteDatasetBinary output. Malformed input is
// a *wire.Error with Format "GPSD".
func ReadDatasetBinary(r io.Reader) (*dataset.Dataset, error) {
	dec := wire.NewReader(binaryMagic, r)
	dec.At("header", -1)
	dec.Header(binaryMagic, binaryVersion)
	d := &dataset.Dataset{}
	d.Name = dec.Str(maxString)
	d.SpaceSize = dec.Uvarint()
	d.CollectionProbes = dec.Uvarint()
	d.SampleFraction = math.Float64frombits(dec.U64())

	prev := uint64(0)
	for i, n := 0, dec.Count(dec.Uvarint(), maxPorts); i < n && dec.Err() == nil; i++ {
		dec.At("port", i)
		prev += dec.Uvarint()
		if prev > 65535 {
			dec.Fail(wire.Implausible, errors.New("port overflow"))
		}
		d.Ports = append(d.Ports, uint16(prev))
	}

	// Counts size nothing up front: a few hostile bytes may declare any
	// count under the cap, so slices grow as elements prove to exist.
	table := ReadStringTable(dec)

	dec.At("records", -1)
	nRecords := dec.Count(dec.Uvarint(), maxRecords)
	d.Records = make([]dataset.Record, 0, min(nRecords, 1<<16))
	for i := 0; i < nRecords && dec.Err() == nil; i++ {
		dec.At("record", i)
		d.Records = append(d.Records, dataset.Record{
			IP:    asndb.IP(dec.U32()),
			Port:  dec.U16(),
			Proto: features.Protocol(dec.U8()),
			ASN:   asndb.ASN(dec.Uvarint()),
			TTL:   dec.U8(),
			Feats: table.Feats(dec),
		})
	}
	if err := dec.Done(); err != nil {
		return nil, err
	}
	return d, nil
}

// AppendInterned appends a string table and then n records, each as
// record writes it followed by its feature set, nfeats u8 + (key u8,
// string-table index uvarint)* in ascending key order. It is the one
// interning implementation behind GPSD and GPSC, and what makes both
// compact: fleet-scoped banner values appear once no matter how many
// thousands of hosts share them. The table goes first on the wire but is
// only known once every set is interned, so the records are encoded to
// the side and appended after it.
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
