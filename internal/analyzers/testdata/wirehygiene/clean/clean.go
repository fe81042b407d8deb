// Package fixture is the wirehygiene known-clean golden package,
// checked as gps/internal/shard/transport: every frame constant has an
// encode and a decode site, and the decoders only use minimum-length
// guards.
package fixture

import (
	"errors"
	"io"

	"gps/internal/wire"
)

// Frame types: each must appear on both sides of the wire.
const (
	msgPing = 1
	msgPong = 2
	msgData = 3
)

func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	_, err := w.Write(append([]byte{typ}, payload...))
	return err
}

// send covers the encode side of all three constants.
func send(w io.Writer) error {
	if err := writeFrame(w, msgPing, nil); err != nil {
		return err
	}
	if err := writeFrame(w, msgData, []byte("x")); err != nil {
		return err
	}
	return writeFrame(w, msgPong, nil)
}

// dispatch covers the decode side via switch cases.
func dispatch(typ uint8, payload []byte) error {
	switch typ {
	case msgPing:
		return nil
	case msgData:
		return decodeData(payload)
	}
	return errors.New("unhandled")
}

// rpc covers msgPong's decode side via an expected-reply parameter and
// the comparison inside the helper.
func rpc(typ uint8, want uint8) error {
	if typ != want {
		return errors.New("unexpected reply")
	}
	return nil
}

func call(w io.Writer) error {
	if err := send(w); err != nil {
		return err
	}
	return rpc(msgPong, msgPong)
}

// decodeData uses a minimum-length guard and tolerates trailing bytes —
// the two-way-compatibility rule.
func decodeData(payload []byte) error {
	if len(payload) < 1 {
		return errors.New("short payload")
	}
	return nil
}

// decodeTolerant finishes with Err: trailing bytes are not its business.
func decodeTolerant(payload []byte) (int64, error) {
	d := wire.NewDec("GPST", payload)
	v := d.Varint()
	return v, d.Err()
}
