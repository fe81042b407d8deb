package trace

import (
	"time"

	"gps/internal/wire"
)

// Wire encoding for span batches. A batch is the last blob of a GPST
// epoch result, empty when the epoch ran untraced, and its decoder is
// strict like every other in the tree: it accepts only what EncodeSpans
// writes. (A span context on the wire is two plain uvarints of the
// frame that carries it, trace id then span id, both zero for none.)

const (
	// spanFormat names the span batch in decode errors; the batch has no
	// magic of its own, it rides inside a GPST epoch result.
	spanFormat = "trace spans"
	// maxWireSpans bounds a decoded batch (and one span's attributes) so
	// a corrupt count cannot balloon allocation. An epoch ships ~1 span
	// per phase per shard; 4096 is orders of magnitude above any honest
	// batch.
	maxWireSpans  = 4096
	maxWireString = 1 << 16
)

// EncodeSpans serializes a span batch for shipping across the wire
// (worker → coordinator on an epoch result).
func EncodeSpans(recs []SpanRecord) []byte {
	var e wire.Enc
	e.Uvarint(uint64(len(recs)))
	for _, r := range recs {
		e.Uvarint(r.TraceID)
		e.Uvarint(r.SpanID)
		e.Uvarint(r.Parent)
		e.Str(r.Name)
		e.Str(r.Proc)
		e.Varint(r.Start.UnixNano())
		e.Uvarint(uint64(r.Duration))
		e.Uvarint(uint64(len(r.Attrs)))
		for _, a := range r.Attrs {
			e.Str(a.Key)
			e.Str(a.Value)
		}
	}
	return e
}

// DecodeSpans parses a batch produced by EncodeSpans. Malformed input,
// trailing bytes included, is a *wire.Error carrying the index of the
// span it broke in.
func DecodeSpans(buf []byte) ([]SpanRecord, error) {
	d := wire.NewDec(spanFormat, buf)
	n := d.Count(d.Uvarint(), maxWireSpans)
	recs := make([]SpanRecord, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		d.At("span", i)
		rec := SpanRecord{
			TraceID:  d.Uvarint(),
			SpanID:   d.Uvarint(),
			Parent:   d.Uvarint(),
			Name:     d.Str(maxWireString),
			Proc:     d.Str(maxWireString),
			Start:    time.Unix(0, d.Varint()),
			Duration: time.Duration(d.Uvarint()),
		}
		if na := d.Count(d.Uvarint(), maxWireSpans); na > 0 {
			rec.Attrs = make([]Attr, 0, na)
			for j := 0; j < na && d.Err() == nil; j++ {
				rec.Attrs = append(rec.Attrs, Attr{Key: d.Str(maxWireString), Value: d.Str(maxWireString)})
			}
		}
		recs = append(recs, rec)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return recs, nil
}
