// Package wire is the one binary codec under every GPS format: the file
// formats (GPSC, GPS5, GPSV, GPSE), the GPST frame payloads with their
// GPSP envelope, and the trace span batch. A format
// is a sequence of Enc calls mirrored by the same sequence of Dec calls;
// the byte layouts themselves stay with their owners.
//
// Dec is sticky: the first malformed field records a typed *Error and
// every later read returns zero, so a decoder reads straight through and
// checks once, with Done, which also refuses unread bytes. Every format
// has one byte layout per version: a field is never optional, a reader
// accepts only what its writer emits, and a new field is a version bump.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind classifies a decode failure.
type Kind uint8

const (
	BadMagic    Kind = iota + 1 // not this format at all
	BadVersion                  // this format, a version the reader does not speak
	Truncated                   // the input ended (or the read failed) mid-field
	Implausible                 // a count, length or value outside what the format allows
	Trailing                    // unread bytes after a format's last field
)

func (k Kind) String() string {
	return [...]string{"invalid", "bad magic", "bad version", "truncated", "implausible", "trailing data"}[k]
}

// Error is the failure every decoder built on Dec returns for malformed
// input: which format, what kind of damage, and where.
type Error struct {
	Format  string // the magic or name the decoder was created with
	Kind    Kind
	Section string // the part being decoded, as last set by Dec.At
	Index   int    // element within Section; -1 when not inside one
	Err     error  // detail, or the underlying read error
}

func (e *Error) Error() string {
	msg := fmt.Sprintf("wire: %s: %s", e.Format, e.Kind)
	if e.Section != "" {
		msg += " in " + e.Section
		if e.Index >= 0 {
			msg += fmt.Sprintf(" %d", e.Index)
		}
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *Error) Unwrap() error { return e.Err }

// IsKind reports whether err is (or wraps) an *Error of kind k.
func IsKind(err error, k Kind) bool {
	var e *Error
	return errors.As(err, &e) && e.Kind == k
}

// Enc builds an encoding by appending; it is the bytes written so far.
type Enc []byte

func (e *Enc) U8(v uint8)       { *e = append(*e, v) }
func (e *Enc) U16(v uint16)     { *e = binary.BigEndian.AppendUint16(*e, v) }
func (e *Enc) U32(v uint32)     { *e = binary.BigEndian.AppendUint32(*e, v) }
func (e *Enc) U64(v uint64)     { *e = binary.BigEndian.AppendUint64(*e, v) }
func (e *Enc) Uvarint(v uint64) { *e = binary.AppendUvarint(*e, v) }
func (e *Enc) Varint(v int64)   { *e = binary.AppendVarint(*e, v) }
func (e *Enc) Magic(m string)   { *e = append(*e, m...) }

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Header writes a format's magic and version byte.
func (e *Enc) Header(magic string, version uint8) {
	e.Magic(magic)
	e.U8(version)
}

// Blob writes a uvarint length and the bytes.
func (e *Enc) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	*e = append(*e, b...)
}

// Str is Blob for a string.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	*e = append(*e, s...)
}

// window is how much a streaming Dec reads ahead of what it has parsed.
const window = 4096

// Dec parses an encoding, from memory (NewDec) or from a stream
// (NewReader) through a read-ahead window. See the package comment for
// the error discipline.
type Dec struct {
	format  string
	buf     []byte // unread bytes are buf[off:]
	off     int
	src     io.Reader // nil in memory, and once the stream has ended
	srcErr  error     // why the stream ended, when not by EOF
	section string
	index   int
	err     error
}

// NewDec decodes an in-memory encoding of the named format.
func NewDec(format string, b []byte) *Dec {
	return &Dec{format: format, buf: b, index: -1}
}

// NewReader decodes the named format from r, buffering: it may read
// past the encoding's end, like bufio.
func NewReader(format string, r io.Reader) *Dec {
	return &Dec{format: format, buf: make([]byte, 0, window), src: r, index: -1}
}

// At names the part being decoded, stamped on any later error; index is
// the element within it, -1 for none.
func (d *Dec) At(section string, index int) { d.section, d.index = section, index }

// Fail records a format-level failure (an out-of-range value, say) as
// the decoder's sticky error; the first failure wins.
func (d *Dec) Fail(k Kind, err error) {
	if d.err == nil {
		d.err = &Error{Format: d.format, Kind: k, Section: d.section, Index: d.index, Err: err}
	}
}

func (d *Dec) truncated() {
	err := d.srcErr
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	d.Fail(Truncated, err)
}

// fill tries to have n unread bytes buffered (n <= window), reading
// ahead from the stream when short, and reports whether it does.
func (d *Dec) fill(n int) bool {
	have := len(d.buf) - d.off
	if have < n && d.src != nil {
		copy(d.buf[:have], d.buf[d.off:])
		d.off = 0
		m, err := io.ReadAtLeast(d.src, d.buf[have:cap(d.buf)], n-have)
		have += m
		d.buf = d.buf[:have]
		if err != nil {
			d.endStream(err)
		}
	}
	return have >= n
}

// endStream stops reading ahead; a failure other than end-of-input is
// kept as the cause of the truncation that follows.
func (d *Dec) endStream(err error) {
	d.src = nil
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		d.srcErr = err
	}
}

var zeros [8]byte

// take consumes n <= 8 bytes, or fails and returns zeros.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return zeros[:n]
	}
	if !d.fill(n) {
		d.truncated()
		return zeros[:n]
	}
	d.off += n
	return d.buf[d.off-n : d.off]
}

func (d *Dec) U8() uint8   { return d.take(1)[0] }
func (d *Dec) U16() uint16 { return binary.BigEndian.Uint16(d.take(2)) }
func (d *Dec) U32() uint32 { return binary.BigEndian.Uint32(d.take(4)) }
func (d *Dec) U64() uint64 { return binary.BigEndian.Uint64(d.take(8)) }

// Bool reads a byte as Enc.Bool writes it: 0 or 1, and any other byte is
// Implausible, so every accepted input re-encodes to itself.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Fail(Implausible, fmt.Errorf("bool byte %d", v))
		return false
	}
	return v == 1
}

// Uvarint reads a varint as Enc.Uvarint writes it: in its fewest bytes,
// so a longer encoding of the same value (a last byte of 0x00) is
// Implausible and every accepted input re-encodes to itself.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	d.fill(binary.MaxVarintLen64)
	v, n := binary.Uvarint(d.buf[d.off:])
	if n == 0 {
		d.truncated()
	} else if n < 0 {
		d.Fail(Implausible, errors.New("varint overflows 64 bits"))
		return 0
	} else if n > 1 && d.buf[d.off+n-1] == 0 {
		d.Fail(Implausible, fmt.Errorf("%d-byte varint of %d is not minimal", n, v))
		return 0
	}
	d.off += n
	return v
}

func (d *Dec) Varint() int64 {
	u := d.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Magic consumes len(magic) bytes and requires them to equal magic.
func (d *Dec) Magic(magic string) {
	if d.err != nil {
		return
	}
	if !d.fill(len(magic)) {
		d.truncated()
		return
	}
	got := d.buf[d.off : d.off+len(magic)]
	d.off += len(magic)
	if string(got) != magic {
		d.Fail(BadMagic, fmt.Errorf("found %q, want %q", got, magic))
	}
}

// Header consumes a format's magic and version byte and requires both
// to match.
func (d *Dec) Header(magic string, version uint8) {
	d.Magic(magic)
	if got := d.U8(); d.err == nil && got != version {
		d.Fail(BadVersion, fmt.Errorf("found version %d, want %d", got, version))
	}
}

// Count guards a declared element count: n > max is Implausible. It
// returns n, or 0 once the decoder has failed, so the loop it bounds
// does not run. The elements are only proven to exist as they are read:
// preallocate from a capped hint, never from n.
func (d *Dec) Count(n, max uint64) int {
	if d.err == nil && n > max {
		d.Fail(Implausible, fmt.Errorf("count %d, limit %d", n, max))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Blob reads a uvarint length and that many bytes into a fresh slice. A
// length over max is Implausible; one beyond the end of an in-memory
// encoding is Truncated before anything is allocated.
func (d *Dec) Blob(max uint64) []byte {
	n := d.Uvarint()
	if d.err == nil && n > max {
		d.Fail(Implausible, fmt.Errorf("%d-byte field, limit %d", n, max))
	}
	have := len(d.buf) - d.off
	if d.err == nil && d.src == nil && n > uint64(have) {
		d.truncated()
	}
	if d.err != nil {
		return nil
	}
	b := make([]byte, n)
	got := copy(b, d.buf[d.off:])
	d.off += got
	if got < len(b) {
		if _, err := io.ReadFull(d.src, b[got:]); err != nil {
			d.endStream(err)
			d.truncated()
			return nil
		}
	}
	return b
}

// Str is Blob for a string.
func (d *Dec) Str(max uint64) string { return string(d.Blob(max)) }

// More reports whether unread bytes remain (false once failed).
func (d *Dec) More() bool { return d.err == nil && d.fill(1) }

// Rest returns the unread remainder of an in-memory encoding without
// consuming it, for a format that embeds another's encoding as its tail.
func (d *Dec) Rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.buf[d.off:]
}

// Err returns the sticky error so far: the check a decoder makes
// mid-way, to stop a loop or hand its rest to an embedded format.
func (d *Dec) Err() error { return d.err }

// Done is a decoder's last check: the sticky error, or Trailing when
// unread bytes remain.
func (d *Dec) Done() error {
	if d.More() {
		d.At("", -1)
		d.Fail(Trailing, nil)
	}
	return d.err
}
