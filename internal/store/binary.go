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

	// The string table goes first on the wire but is only known once
	// every record's features are interned, so the records are encoded
	// to the side and appended after it.
	index := make(map[string]uint64)
	var table, recs wire.Enc
	recs.Uvarint(uint64(len(d.Records)))
	for _, r := range d.Records {
		recs.U32(uint32(r.IP))
		recs.U16(r.Port)
		recs.U8(uint8(r.Proto))
		recs.Uvarint(uint64(r.ASN))
		recs.U8(r.TTL)
		feats := r.Feats.Values()
		recs.U8(uint8(len(feats)))
		for _, v := range feats {
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
	e = append(append(e, table...), recs...)

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
	dec.At("string table", -1)
	var table []string
	for i, n := 0, dec.Count(dec.Uvarint(), maxStrings); i < n && dec.Err() == nil; i++ {
		dec.At("string", i)
		table = append(table, dec.Str(maxString))
	}

	dec.At("records", -1)
	nRecords := dec.Count(dec.Uvarint(), maxRecords)
	d.Records = make([]dataset.Record, 0, min(nRecords, 1<<16))
	for i := 0; i < nRecords && dec.Err() == nil; i++ {
		dec.At("record", i)
		rec := dataset.Record{
			IP:    asndb.IP(dec.U32()),
			Port:  dec.U16(),
			Proto: features.Protocol(dec.U8()),
			ASN:   asndb.ASN(dec.Uvarint()),
			TTL:   dec.U8(),
		}
		if nf := int(dec.U8()); nf > 0 {
			rec.Feats = make(features.Set, nf)
			for j := 0; j < nf && dec.Err() == nil; j++ {
				key, id := features.Key(dec.U8()), dec.Uvarint()
				if id >= uint64(len(table)) {
					dec.Fail(wire.Implausible, fmt.Errorf("string index %d of %d", id, len(table)))
					break
				}
				rec.Feats[key] = table[id]
			}
		}
		d.Records = append(d.Records, rec)
	}
	if err := dec.Done(); err != nil {
		return nil, err
	}
	return d, nil
}
