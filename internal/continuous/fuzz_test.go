package continuous

import (
	"os"
	"testing"

	"gps/internal/wire/wiretest"
)

// FuzzReadCheckpoint drives arbitrary bytes through the GPSC reader (and,
// through its known-set blob, the GPSD one). No input may panic or size
// an allocation from an unproven count; every refusal is a *wire.Error
// naming the format that broke; and an accepted state is canonical after
// one write: write → read → write reproduces the bytes.
func FuzzReadCheckpoint(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden/GPSC.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])                 // cut inside the known set
	f.Add(append(append([]byte{}, golden...), 0)) // trailing byte
	f.Add([]byte("GPSX\x01junk"))                 // foreign magic
	f.Add([]byte("GPSC\x02\x07\xff\xff\xff\x7f")) // a 256 MiB known set, none present

	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.FuzzCanonical(t, data, "GPSC GPSD", ReadCheckpoint, WriteCheckpoint)
	})
}
