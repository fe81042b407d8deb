package trace

import (
	"time"

	"gps/internal/wire"
)

// Wire encoding for trace context and span batches. These ride as
// OPTIONAL TRAILING FIELDS on existing GPST frames: the transport's
// decoders never require payload exhaustion, so a v2 peer built before
// tracing simply ignores the extra bytes, and a new peer treats their
// absence as "no trace". Nothing here bumps the wire version.

// AppendContext appends a span context to buf as two uvarints
// (trace id, span id). Appending the zero context is allowed and
// decodes back to zero.
func AppendContext(buf []byte, ctx SpanContext) []byte {
	e := wire.Enc(buf)
	e.Uvarint(ctx.TraceID)
	e.Uvarint(ctx.SpanID)
	return e
}

// ReadContext decodes a span context produced by AppendContext from
// the front of buf, returning the remainder. A short or corrupt buffer
// yields the zero context — trace context is best-effort metadata and
// must never fail a frame.
func ReadContext(buf []byte) (SpanContext, []byte) {
	d := wire.NewDec("trace context", buf)
	ctx := SpanContext{TraceID: d.Uvarint(), SpanID: d.Uvarint()}
	if d.Err() != nil {
		return SpanContext{}, nil
	}
	return ctx, d.Rest()
}

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
// (worker → coordinator on an epoch result). Returns nil for an empty
// batch so callers can gate the optional field on len() != 0.
func EncodeSpans(recs []SpanRecord) []byte {
	if len(recs) == 0 {
		return nil
	}
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

// DecodeSpans parses a batch produced by EncodeSpans. Malformed input is
// a *wire.Error carrying the index of the span it broke in.
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
	if err := d.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
