package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// sample writes one of everything, with a blob big enough to straddle
// the streaming window several times over.
func sample() (Enc, []byte) {
	big := bytes.Repeat([]byte("0123456789abcdef"), window/4)
	var e Enc
	e.Header("TEST", 3)
	e.U8(0xfe)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(math.MaxUint64 - 1)
	e.Uvarint(math.MaxUint64)
	e.Varint(math.MinInt64)
	e.Varint(-1)
	e.Bool(true)
	e.Bool(false)
	e.Blob(big)
	e.Str("héllo")
	e.Blob(nil)
	return e, big
}

// readSample mirrors sample, failing the test on any mismatch.
func readSample(t *testing.T, d *Dec, big []byte) {
	t.Helper()
	d.Header("TEST", 3)
	if got := d.U8(); got != 0xfe {
		t.Errorf("U8 = %#x", got)
	}
	if got := d.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != math.MaxUint64-1 {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %#x", got)
	}
	if got := d.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d", got)
	}
	if got := d.Varint(); got != -1 {
		t.Errorf("Varint = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool pair did not read true, false")
	}
	if got := d.Blob(1 << 20); !bytes.Equal(got, big) {
		t.Errorf("Blob: %d bytes, want %d", len(got), len(big))
	}
	if got := d.Str(16); got != "héllo" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Blob(0); len(got) != 0 {
		t.Errorf("empty Blob = %q", got)
	}
}

// TestRoundTrip reads one encoding back three ways: from memory, from a
// stream, and from a stream that yields a byte at a time (every refill
// path, every field straddling a window edge).
func TestRoundTrip(t *testing.T) {
	enc, big := sample()
	sources := map[string]func() *Dec{
		"memory":    func() *Dec { return NewDec("TEST", enc) },
		"stream":    func() *Dec { return NewReader("TEST", bytes.NewReader(enc)) },
		"byte-wise": func() *Dec { return NewReader("TEST", iotest.OneByteReader(bytes.NewReader(enc))) },
	}
	for name, open := range sources {
		t.Run(name, func(t *testing.T) {
			d := open()
			readSample(t, d, big)
			if d.More() {
				t.Error("More after the last field")
			}
			if err := d.Done(); err != nil {
				t.Errorf("Done: %v", err)
			}
		})
	}
}

// TestTruncatedEverywhere cuts the sample at every offset: each cut is a
// sticky Truncated error wrapping io.ErrUnexpectedEOF, from memory and
// from a stream alike, and reads after the failure return zero.
func TestTruncatedEverywhere(t *testing.T) {
	enc, _ := sample()
	for cut := 0; cut < len(enc); cut += 1 + cut/64 { // every offset early, sparser inside the big blob
		for _, d := range []*Dec{NewDec("TEST", enc[:cut]), NewReader("TEST", bytes.NewReader(enc[:cut]))} {
			d.At("field", 7)
			d.Header("TEST", 3)
			d.U8()
			d.U16()
			d.U32()
			d.U64()
			d.Uvarint()
			d.Varint()
			d.Varint()
			d.Bool()
			d.Bool()
			d.Blob(1 << 20)
			d.Str(16)
			d.Blob(0)
			var werr *Error
			if err := d.Err(); !errors.As(err, &werr) || werr.Kind != Truncated || !errors.Is(err, io.ErrUnexpectedEOF) ||
				werr.Format != "TEST" || werr.Section != "field" || werr.Index != 7 {
				t.Fatalf("cut at %d: %v; want a truncated TEST error at field 7", cut, d.Err())
			}
			if d.U64() != 0 || d.Uvarint() != 0 || d.Blob(9) != nil || d.More() || d.Rest() != nil {
				t.Fatalf("cut at %d: reads after the failure returned data", cut)
			}
			if d.Done() != d.Err() {
				t.Fatalf("cut at %d: Done replaced the first error", cut)
			}
		}
	}
}

func TestHeaderErrors(t *testing.T) {
	var e Enc
	e.Header("TEST", 3)
	for _, tc := range []struct {
		name string
		in   []byte
		kind Kind
		says string
	}{
		{"foreign magic", []byte("NOPE\x03"), BadMagic, `found "NOPE", want "TEST"`},
		{"other version", []byte("TEST\x09"), BadVersion, "found version 9, want 3"},
		{"cut in magic", []byte("TE"), Truncated, "unexpected EOF"},
		{"cut before version", []byte("TEST"), Truncated, "unexpected EOF"},
	} {
		d := NewDec("TEST", tc.in)
		d.Header("TEST", 3)
		if err := d.Err(); !IsKind(err, tc.kind) || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: %v; want kind %v saying %q", tc.name, err, tc.kind, tc.says)
		}
	}
	if IsKind(nil, Truncated) || IsKind(io.EOF, Truncated) {
		t.Error("IsKind matched a non-wire error")
	}
}

func TestImplausible(t *testing.T) {
	var e Enc
	e.Uvarint(100) // a count, or a blob length, of 100
	e.Str("only nine")

	d := NewDec("TEST", e)
	if n := d.Count(d.Uvarint(), 99); n != 0 || !IsKind(d.Err(), Implausible) {
		t.Errorf("Count(100, 99) = %d, %v; want 0 and an implausible error", n, d.Err())
	}
	d = NewDec("TEST", e)
	if n := d.Count(d.Uvarint(), 100); n != 100 || d.Err() != nil {
		t.Errorf("Count(100, 100) = %d, %v", n, d.Err())
	}

	// A length over the cap is refused; one under the cap but past the
	// end of an in-memory encoding is a truncation, found before any
	// allocation is sized from it.
	d = NewDec("TEST", e)
	if b := d.Blob(99); b != nil || !IsKind(d.Err(), Implausible) {
		t.Errorf("Blob over its cap: %q, %v", b, d.Err())
	}
	d = NewDec("TEST", e)
	if b := d.Blob(1 << 30); b != nil || !IsKind(d.Err(), Truncated) {
		t.Errorf("Blob past the end: %q, %v", b, d.Err())
	}

	// An 11-byte varint does not fit 64 bits.
	d = NewDec("TEST", bytes.Repeat([]byte{0xff}, 11))
	if d.Uvarint(); !IsKind(d.Err(), Implausible) {
		t.Errorf("overlong varint: %v", d.Err())
	}

	// Fail keeps the first error and stamps the position.
	d = NewDec("TEST", nil)
	d.At("owned shard", 2)
	d.Fail(Implausible, errors.New("first"))
	d.Fail(Trailing, errors.New("second"))
	var werr *Error
	if !errors.As(d.Err(), &werr) || werr.Kind != Implausible || werr.Section != "owned shard" || werr.Index != 2 ||
		d.Err().Error() != "wire: TEST: implausible in owned shard 2: first" {
		t.Errorf("Fail: %v", d.Err())
	}
}

// TestUvarintMinimal: a varint reads only in the fewest bytes that
// carry its value, the encoding Enc.Uvarint writes.
func TestUvarintMinimal(t *testing.T) {
	for _, tc := range []struct {
		in   []byte
		want uint64
		ok   bool
	}{
		{[]byte{0x00}, 0, true},
		{[]byte{0x7f}, 127, true},
		{[]byte{0x80, 0x01}, 128, true},
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, math.MaxUint64, true},
		{[]byte{0x80, 0x00}, 0, false},
		{[]byte{0xff, 0x00}, 0, false},
		{[]byte{0x81, 0x80, 0x00}, 0, false},
	} {
		d := NewDec("TEST", tc.in)
		got := d.Uvarint()
		if tc.ok && (got != tc.want || d.Done() != nil) {
			t.Errorf("% x: %d, %v; want %d", tc.in, got, d.Err(), tc.want)
		}
		if !tc.ok && (got != 0 || !IsKind(d.Err(), Implausible)) {
			t.Errorf("% x: %d, %v; want 0 and an implausible error", tc.in, got, d.Err())
		}
	}
}

// TestBoolIsZeroOrOne: Bool reads only the two bytes Enc.Bool writes;
// any other byte is Implausible and reads as false.
func TestBoolIsZeroOrOne(t *testing.T) {
	for _, b := range []byte{0, 1, 2, 0x80, 0xff} {
		d := NewDec("TEST", []byte{b})
		got := d.Bool()
		if b <= 1 && (got != (b == 1) || d.Done() != nil) {
			t.Errorf("%#x: %v, %v; want %v", b, got, d.Err(), b == 1)
		}
		if b > 1 && (got || !IsKind(d.Done(), Implausible)) {
			t.Errorf("%#x: %v, %v; want false and an implausible error", b, got, d.Err())
		}
	}
}

// TestTrailingPolicy: a leftover byte is an error to Done, a decoder's
// last check, and not to the mid-way checks Err, More and Rest, which a
// format embedding another's encoding as its tail reads before handing
// the rest over.
func TestTrailingPolicy(t *testing.T) {
	var e Enc
	e.Varint(-5)
	e.Str("tail")
	for name, d := range map[string]*Dec{"memory": NewDec("TEST", e), "stream": NewReader("TEST", bytes.NewReader(e))} {
		if d.Varint() != -5 || !d.More() {
			t.Fatalf("%s: varint then More failed: %v", name, d.Err())
		}
		if err := d.Err(); err != nil {
			t.Errorf("%s: Err with bytes left: %v", name, err)
		}
		if err := d.Done(); !IsKind(err, Trailing) {
			t.Errorf("%s: Done with bytes left: %v; want trailing data", name, err)
		}
	}
	d := NewDec("TEST", e)
	d.Varint()
	if rest := d.Rest(); !bytes.Equal(rest, e[1:]) || d.Str(8) != "tail" {
		t.Errorf("Rest = %q; want the unread tail, left unread", rest)
	}
}

// TestReadFailure: a stream that fails, rather than ends, surfaces as a
// truncation carrying the stream's own error.
func TestReadFailure(t *testing.T) {
	enc, _ := sample()
	boom := errors.New("boom")
	for name, r := range map[string]io.Reader{
		"at once":       iotest.ErrReader(boom),
		"mid-window":    io.MultiReader(bytes.NewReader(enc[:3]), iotest.ErrReader(boom)),
		"inside a blob": io.MultiReader(bytes.NewReader(enc[:len(enc)/2]), iotest.ErrReader(boom)),
	} {
		d := NewReader("TEST", r)
		d.Header("TEST", 3)
		d.U8()
		d.U16()
		d.U32()
		d.U64()
		d.Uvarint()
		d.Varint()
		d.Varint()
		d.Bool()
		d.Bool()
		d.Blob(1 << 20)
		if err := d.Err(); !IsKind(err, Truncated) || !errors.Is(err, boom) {
			t.Errorf("%s: %v; want a truncation wrapping the stream's error", name, err)
		}
	}
}
