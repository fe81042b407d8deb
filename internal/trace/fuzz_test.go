package trace

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"gps/internal/wire"
)

// FuzzDecodeSpans drives arbitrary bytes through the span-batch reader.
// No input may panic, every refusal is a *wire.Error naming the batch,
// and an accepted batch re-encodes to exactly the bytes it was read from.
func FuzzDecodeSpans(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden/spans.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(append(bytes.Clone(golden), 0)) // one trailing byte
	f.Add(EncodeSpans(nil))
	f.Add([]byte{1, 1, 2, 0, 0x80, 0}) // a non-minimal varint in the first span
	// The GPST epoch result that carries a batch, its draining byte
	// (offset 60) set to 2: foreign bytes must still be a typed refusal.
	result, err := os.ReadFile("../../testdata/golden/GPST-epoch-result.bin")
	if err != nil || result[60] != 1 {
		f.Fatalf("GPST-epoch-result.bin: %v, or byte 60 is not its draining flag", err)
	}
	result[60] = 2
	f.Add(result)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeSpans(data)
		if err != nil {
			var werr *wire.Error
			if !errors.As(err, &werr) || werr.Format != spanFormat {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if again := EncodeSpans(recs); !bytes.Equal(again, data) {
			t.Fatalf("accepted batch re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}
