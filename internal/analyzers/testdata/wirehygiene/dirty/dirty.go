// Package fixture is the wirehygiene known-dirty golden package,
// checked as gps/internal/shard/transport.
package fixture

import (
	"errors"
	"io"

	"gps/internal/wire"
)

const (
	msgHello = 1 // encoded and dispatched: clean
	// msgOrphan is never consumed anywhere.
	msgOrphan = 2 // want `frame constant msgOrphan is declared but has neither an encode nor a decode site`
	// msgSendOnly is written but no reader dispatches it.
	msgSendOnly = 3 // want `frame constant msgSendOnly has no decode site`
	// msgReadOnly is dispatched but nothing ever writes it.
	msgReadOnly = 4 // want `frame constant msgReadOnly has no encode site`
)

func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	_, err := w.Write(append([]byte{typ}, payload...))
	return err
}

func send(w io.Writer) error {
	if err := writeFrame(w, msgHello, nil); err != nil {
		return err
	}
	return writeFrame(w, msgSendOnly, nil)
}

func dispatch(typ uint8, payload []byte) error {
	switch typ {
	case msgHello:
		return decodeHello(payload)
	case msgReadOnly:
		return nil
	}
	return errors.New("unhandled")
}

// decodeHello asserts exact exhaustion — the compatibility hazard: a
// peer that appends an optional trailing field breaks this reader.
func decodeHello(payload []byte) error {
	if len(payload) != 8 { // want `decoder decodeHello asserts exact payload length`
		return errors.New("bad length")
	}
	return nil
}

// readBody double-checks the remainder with an equality on len.
func readBody(payload []byte, n int) error {
	if n == len(payload) { // want `decoder readBody asserts exact payload length`
		return nil
	}
	return errors.New("trailing bytes")
}

// decodeStrict parses through the shared codec but finishes with Done,
// which is the same exhaustion assert spelled differently.
func decodeStrict(payload []byte) (int64, error) {
	d := wire.NewDec("GPST", payload)
	v := d.Varint()
	return v, d.Done() // want `decoder decodeStrict finishes with wire.Dec.Done`
}
