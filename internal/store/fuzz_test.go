package store

import (
	"io"
	"os"
	"testing"

	"gps/internal/dataset"
	"gps/internal/wire/wiretest"
)

// FuzzReadDatasetBinary drives arbitrary bytes through the GPSD reader.
// No input may panic or size an allocation from an unproven count; every
// refusal is a *wire.Error naming GPSD; and an accepted dataset is
// canonical after one write: write → read → write reproduces the bytes.
func FuzzReadDatasetBinary(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden/GPSD.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])                                                                           // cut mid-record
	f.Add(append(append([]byte{}, golden...), 0))                                                           // trailing byte
	f.Add([]byte("GPSX\x01junk"))                                                                           // foreign magic
	f.Add([]byte("GPSD\x01\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\xff\xff\xff\xff\x0f")) // huge string count
	for _, c := range badFeatSets {
		f.Add(gpsdWithFeatSet(f, c.set))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.FuzzCanonical(t, data, "GPSD", ReadDatasetBinary,
			func(w io.Writer, d *dataset.Dataset) error { _, err := WriteDatasetBinary(w, d); return err })
	})
}
