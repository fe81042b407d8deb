package shard

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/wire"
)

// fuzzEntry builds a serving-field entry for key k, the only fields the
// GPSV and GPSE formats carry.
func fuzzEntry(k netmodel.Key, proto features.Protocol, asn asndb.ASN, ttl uint8, first, last, stale int) *continuous.Entry {
	return &continuous.Entry{
		Rec: dataset.Record{
			IP: k.IP, Port: k.Port,
			Proto: proto, ASN: asn, TTL: ttl,
		},
		FirstSeen: first, LastSeen: last, Stale: stale,
	}
}

// fuzzBaseInventory is the fixed base every FuzzApplyDelta input is
// applied against.
func fuzzBaseInventory() map[netmodel.Key]*continuous.Entry {
	inv := make(map[netmodel.Key]*continuous.Entry)
	for i, port := range []uint16{22, 443, 8080} {
		k := netmodel.Key{IP: asndb.IP(0x0a000001 + uint32(i)), Port: port}
		inv[k] = fuzzEntry(k, features.Protocol(i+1), asndb.ASN(64500+i), uint8(60+i), 1, 4, i)
	}
	return inv
}

// typedShardError accepts the documented failure modes of the GPSV/GPSE
// readers — a *wire.Error naming the format — and of ApplyDelta, whose
// base-mismatch errors are descriptive "shard:" ones. Anything else is
// an undocumented failure.
func typedShardError(err error, format string) bool {
	var werr *wire.Error
	if errors.As(err, &werr) {
		return werr.Format == format
	}
	return strings.HasPrefix(err.Error(), "shard:")
}

// FuzzReadInventory drives arbitrary bytes through the GPSV reader. No
// input may panic; failures must be the documented typed errors; and an
// accepted inventory must survive a canonical write/read round trip.
func FuzzReadInventory(f *testing.F) {
	base := fuzzBaseInventory()
	var ok bytes.Buffer
	if err := WriteInventory(&ok, base); err != nil {
		f.Fatalf("seeding inventory: %v", err)
	}
	var empty bytes.Buffer
	if err := WriteInventory(&empty, nil); err != nil {
		f.Fatalf("seeding empty inventory: %v", err)
	}
	f.Add(ok.Bytes())
	f.Add(empty.Bytes())
	f.Add(ok.Bytes()[:7])          // cut mid-header
	f.Add([]byte("GPSX\x02junk"))  // foreign magic
	f.Add(append(ok.Bytes(), 0x0)) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		inv, err := ReadInventory(bytes.NewReader(data))
		if err != nil {
			if !typedShardError(err, "GPSV") {
				t.Fatalf("ReadInventory: untyped error %T: %v", err, err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteInventory(&buf, inv); err != nil {
			t.Fatalf("re-encoding accepted inventory: %v", err)
		}
		inv2, err := ReadInventory(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading canonical bytes: %v", err)
		}
		diffInventories(t, inv, inv2)
	})
}

// FuzzApplyDelta drives arbitrary bytes through the GPSE reader and the
// delta application path. An accepted, applicable delta must agree with
// the canonical delta recomputed from its own effect: applying
// ComputeDelta(base, applied) to a fresh clone reproduces the same
// inventory.
func FuzzApplyDelta(f *testing.F) {
	base := fuzzBaseInventory()
	next := CloneInventory(base)
	addKey := netmodel.Key{IP: asndb.IP(0x0a0000ff), Port: 9000}
	next[addKey] = fuzzEntry(addKey, 2, 64999, 55, 3, 5, 0)
	for k := range base {
		if k.Port == 22 {
			delete(next, k)
		} else if k.Port == 443 {
			next[k].Stale++
		}
	}
	var ok bytes.Buffer
	if err := WriteDelta(&ok, ComputeDelta(base, next, 4, 5)); err != nil {
		f.Fatalf("seeding delta: %v", err)
	}
	var empty bytes.Buffer
	if err := WriteDelta(&empty, ComputeDelta(base, base, 5, 6)); err != nil {
		f.Fatalf("seeding empty delta: %v", err)
	}
	f.Add(ok.Bytes())
	f.Add(empty.Bytes())
	f.Add(ok.Bytes()[:6])         // cut mid-header
	f.Add([]byte("GPSX\x01junk")) // foreign magic

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDelta(bytes.NewReader(data))
		if err != nil {
			if !typedShardError(err, "GPSE") {
				t.Fatalf("ReadDelta: untyped error %T: %v", err, err)
			}
			return
		}
		applied := CloneInventory(base)
		if err := ApplyDelta(applied, d); err != nil {
			// A structurally valid delta against the wrong base: the
			// documented mismatch error, with no panic.
			if !typedShardError(err, "") {
				t.Fatalf("ApplyDelta: untyped error %T: %v", err, err)
			}
			return
		}
		canonical := ComputeDelta(base, applied, d.BaseEpoch, d.Epoch)
		replay := CloneInventory(base)
		if err := ApplyDelta(replay, canonical); err != nil {
			t.Fatalf("replaying canonical delta: %v", err)
		}
		diffInventories(t, applied, replay)
	})
}

// diffInventories fails the test unless a and b agree on the
// serving-visible fields of every key.
func diffInventories(t *testing.T, a, b map[netmodel.Key]*continuous.Entry) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("inventories diverge: %d entries vs %d", len(a), len(b))
	}
	for k, ea := range a {
		eb, ok := b[k]
		if !ok {
			t.Fatalf("inventories diverge: %v missing", k)
		}
		if !servedEqual(ea, eb) {
			t.Fatalf("inventories diverge at %v: %+v vs %+v", k, ea, eb)
		}
	}
}
