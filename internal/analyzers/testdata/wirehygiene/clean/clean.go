// Package fixture is the wirehygiene known-clean golden package,
// checked as gps/internal/shard/transport: every frame constant has an
// encode and a decode site, and every decoder finishes with Done.
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

// decodeData finishes with Done: a payload has one layout.
func decodeData(payload []byte) error {
	d := wire.NewDec("GPST", payload)
	d.Str(16)
	return d.Done()
}

// decodeList checks Err to stop its loop, then finishes with Done.
func decodeList(payload []byte) ([]uint64, error) {
	d := wire.NewDec("GPST", payload)
	n := d.Count(d.Uvarint(), 8)
	var out []uint64
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, d.Uvarint())
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// peekHeader is no decoder: only decode*/read* functions are governed.
func peekHeader(payload []byte) error {
	d := wire.NewDec("GPST", payload)
	d.U8()
	return d.Err()
}
