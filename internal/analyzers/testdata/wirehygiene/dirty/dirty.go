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
		_, err := decodeHello(payload)
		return err
	case msgReadOnly:
		return nil
	}
	return errors.New("unhandled")
}

// decodeHello finishes with Err, so a payload with bytes appended
// decodes as well: a second layout the encoder never writes.
func decodeHello(payload []byte) (int64, error) {
	d := wire.NewDec("GPST", payload)
	v := d.Varint()
	return v, d.Err() // want `decoder decodeHello finishes with wire.Dec.Err`
}

// readBody checks Done on the header, then only Err after the body.
func readBody(payload []byte) ([]byte, error) {
	d := wire.NewDec("GPST", payload)
	hdr := wire.NewDec("GPST", d.Blob(8))
	hdr.U8()
	if err := hdr.Done(); err != nil {
		return nil, err
	}
	body := d.Blob(1 << 10)
	return body, d.Err() // want `decoder readBody finishes with wire.Dec.Err`
}
