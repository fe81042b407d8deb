// Package wiretest holds the checks every binary format in the tree
// runs against: the golden-file table and the fuzz body of the file
// formats. The goldens under testdata/golden were written by the
// encoders as they stood before the formats moved onto internal/wire, so
// they pin each format's bytes, not just its round trip. The checks live
// here rather than in one test file because the codecs they run against
// span five packages, some of them unexported (the GPST payloads, the
// gpsd checkpoint).
package wiretest

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gps/internal/wire"
)

// Case is one golden file and the codec pair that must reproduce it.
type Case struct {
	// Name is the golden file's name, without its .bin extension.
	Name string
	// Encode runs today's encoder over the fixed fixture the golden was
	// generated from.
	Encode func() ([]byte, error)
	// Decode runs today's decoder and reports its error.
	Decode func([]byte) error
}

// Run checks each case against dir/<Name>.bin: the encoder reproduces
// the golden bit for bit, the decoder accepts it, the golden cut at
// every byte offset is refused with a *wire.Error of kind Truncated, and
// the golden with one byte appended is refused as Trailing.
func Run(t *testing.T, dir string, cases []Case) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join(dir, c.Name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Encode()
			if err != nil {
				t.Fatalf("encoding: %v", err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("encoder output (%d bytes) differs from the golden (%d bytes)", len(got), len(golden))
			}
			if err := c.Decode(golden); err != nil {
				t.Errorf("decoding the golden: %v", err)
			}
			for cut := 0; cut < len(golden); cut++ {
				if err := c.Decode(golden[:cut:cut]); !wire.IsKind(err, wire.Truncated) {
					t.Fatalf("cut at %d of %d: %v; want a truncated *wire.Error", cut, len(golden), err)
				}
			}
			if err := c.Decode(append(bytes.Clone(golden), 0)); !wire.IsKind(err, wire.Trailing) {
				t.Errorf("one byte past the golden: %v; want a trailing-data *wire.Error", err)
			}
		})
	}
}

// FuzzCanonical is the fuzz body the file formats share. Data is either
// refused with a *wire.Error naming one of formats (the format itself,
// or one it embeds), or read into a value that writes back to exactly
// data: a reader accepts only the bytes its writer emits.
func FuzzCanonical[T any](t *testing.T, data []byte, formats string,
	read func(io.Reader) (T, error), write func(io.Writer, T) error) {
	v, err := read(bytes.NewReader(data))
	if err != nil {
		var werr *wire.Error
		if !errors.As(err, &werr) || !strings.Contains(formats, werr.Format) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
		return
	}
	var again bytes.Buffer
	if err := write(&again, v); err != nil {
		t.Fatalf("re-encoding an accepted value: %v", err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatalf("accepted input re-encodes differently:\n got %x\nwant %x", again.Bytes(), data)
	}
}
