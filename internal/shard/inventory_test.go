package shard

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/wire"
)

// TestInventoryRoundTrip pins the write→read contract: everything the
// GPSV format carries (key, proto, ASN, TTL, observation counters) comes
// back exactly, and re-serializing the parsed inventory reproduces the
// input bytes — so a served file is as authoritative as the run that
// wrote it.
func TestInventoryRoundTrip(t *testing.T) {
	states := epochStates(t, 2)
	inv := MergeInventories(states)
	if len(inv) == 0 {
		t.Fatal("empty test inventory")
	}

	var buf bytes.Buffer
	if err := WriteInventory(&buf, inv); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	got, err := ReadInventory(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(inv) {
		t.Fatalf("round trip returned %d entries; want %d", len(got), len(inv))
	}
	for k, e := range inv {
		g, ok := got[k]
		if !ok {
			t.Fatalf("round trip lost %v", k)
		}
		if g.FirstSeen != e.FirstSeen || g.LastSeen != e.LastSeen || g.Stale != e.Stale {
			t.Errorf("%v counters: got %d/%d/%d, want %d/%d/%d",
				k, g.FirstSeen, g.LastSeen, g.Stale, e.FirstSeen, e.LastSeen, e.Stale)
		}
		if g.Rec.IP != k.IP || g.Rec.Port != k.Port ||
			g.Rec.Proto != e.Rec.Proto || g.Rec.ASN != e.Rec.ASN || g.Rec.TTL != e.Rec.TTL {
			t.Errorf("%v serving fields: got %v/%v/%d, want %v/%v/%d",
				k, g.Rec.Proto, g.Rec.ASN, g.Rec.TTL, e.Rec.Proto, e.Rec.ASN, e.Rec.TTL)
		}
	}

	var again bytes.Buffer
	if err := WriteInventory(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, again.Bytes()) {
		t.Error("re-serializing the parsed inventory changed the bytes")
	}
}

func TestReadInventoryEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteInventory(&buf, nil); err != nil {
		t.Fatal(err)
	}
	inv, err := ReadInventory(&buf)
	if err != nil || len(inv) != 0 {
		t.Fatalf("empty inventory round trip: %d entries, %v", len(inv), err)
	}
}

func TestReadInventoryTypedErrors(t *testing.T) {
	// A small hand-built inventory: the truncation sweep below parses a
	// prefix of the wire for every cut point, so the file must stay tiny
	// for the test to stay O(bytes²)-cheap.
	inv := make(map[netmodel.Key]*continuous.Entry)
	for i := 0; i < 4; i++ {
		ip := asndb.IP(0x0a000001 + uint32(i))
		inv[netmodel.Key{IP: ip, Port: 443}] = &continuous.Entry{
			Rec:       dataset.Record{IP: ip, Port: 443, Proto: features.ProtocolTLS, ASN: 64500, TTL: 64},
			FirstSeen: 1, LastSeen: 2 + i, Stale: i % 2,
		}
	}
	var buf bytes.Buffer
	if err := WriteInventory(&buf, inv); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Foreign bytes: a magic error naming what was found.
	var werr *wire.Error
	_, err := ReadInventory(bytes.NewReader([]byte("GPSXxxxxxxxxxxxx")))
	if !errors.As(err, &werr) || werr.Format != "GPSV" || werr.Kind != wire.BadMagic || !strings.Contains(err.Error(), `"GPSX"`) {
		t.Errorf("foreign magic: %v; want a GPSV bad-magic *wire.Error naming GPSX", err)
	}

	// A version-1 file (no version byte: the count's high 0x00 byte lands
	// where the version lives) must fail loudly, not misparse.
	v1 := append([]byte(stateInventoryMagic), make([]byte, 9)...)
	_, err = ReadInventory(bytes.NewReader(v1))
	if !errors.As(err, &werr) || werr.Format != "GPSV" || werr.Kind != wire.BadVersion || !strings.Contains(err.Error(), "version 0") {
		t.Errorf("version-1 bytes: %v; want a version mismatch", err)
	}

	// An implausible entry count is refused before anything is sized.
	huge := append([]byte(stateInventoryMagic), stateInventoryVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	if _, err = ReadInventory(bytes.NewReader(huge)); !wire.IsKind(err, wire.Implausible) {
		t.Errorf("count 2^64-1: %v; want an implausible-count *wire.Error", err)
	}

	// Every possible truncation point yields a typed truncation error
	// (never a silent short inventory, never a panic).
	for cut := 0; cut < len(blob); cut++ {
		_, err := ReadInventory(bytes.NewReader(blob[:cut]))
		if !errors.As(err, &werr) || werr.Kind != wire.Truncated || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v; want a truncated *wire.Error", cut, err)
		}
		if cut < 5+8 {
			if werr.Section != "header" || werr.Index != -1 {
				t.Fatalf("cut at %d: %v; want header truncation", cut, err)
			}
			continue
		}
		if werr.Section != "entry" || werr.Index < 0 || werr.Index >= len(inv) {
			t.Fatalf("cut at %d: %v; entry index out of range", cut, err)
		}
	}

	// Trailing garbage after the declared entries is corruption too.
	_, err = ReadInventory(bytes.NewReader(append(append([]byte{}, blob...), 0xFF)))
	if !wire.IsKind(err, wire.Trailing) {
		t.Errorf("trailing data: %v; want a trailing-data *wire.Error", err)
	}
}
