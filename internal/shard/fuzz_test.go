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

// outOfRangeFields are served fields past their ranges, one case per
// field DecodeServed bounds: a proto past the protocol table, an ASN past
// 32 bits and a TTL past 8 bits.
var outOfRangeFields = []struct {
	field           string
	proto, asn, ttl uint64
}{
	{"proto", uint64(features.NumProtocols) + 1, 64500, 60},
	{"asn", 1, 1 << 32, 60},
	{"ttl", 1, 64500, 256},
}

// withServed returns data, which holds k and e's served fields as
// EncodeServed writes them, with proto, asn and ttl in their place.
func withServed(tb testing.TB, data []byte, k netmodel.Key, e *continuous.Entry, proto, asn, ttl uint64) []byte {
	tb.Helper()
	var good, bad wire.Enc
	continuous.EncodeServed(&good, k, e)
	continuous.EncodeKey(&bad, k)
	for _, v := range []uint64{proto, asn, ttl, uint64(e.FirstSeen), uint64(e.LastSeen), uint64(e.Stale)} {
		bad.Uvarint(v)
	}
	if !bytes.Contains(data, good) {
		tb.Fatalf("% x does not hold %v's served fields % x", data, k, good)
	}
	return bytes.Replace(data, good, bad, 1)
}

// TestReadersRefuseOutOfRangeServedFields: GPSC, GPSV and GPSE all read
// an entry's served fields through DecodeServed, so each refuses a field
// past its range as Implausible, naming the field, instead of narrowing
// it (TTL 256 read as 0).
func TestReadersRefuseOutOfRangeServedFields(t *testing.T) {
	k := netmodel.Key{IP: 0x0a000001, Port: 80}
	e := fuzzEntry(k, 1, 64500, 60, 0, 1, 0)
	readers := []struct {
		format string
		write  func(*bytes.Buffer) error
		read   func([]byte) error
	}{
		{"GPSC", func(w *bytes.Buffer) error {
			return continuous.WriteCheckpoint(w, &continuous.State{Epoch: 1, Known: []continuous.Entry{*e}})
		}, func(b []byte) error { _, err := continuous.ReadCheckpoint(bytes.NewReader(b)); return err }},
		{"GPSV", func(w *bytes.Buffer) error {
			return WriteInventory(w, map[netmodel.Key]*continuous.Entry{k: e})
		}, func(b []byte) error { _, err := ReadInventory(bytes.NewReader(b)); return err }},
		{"GPSE", func(w *bytes.Buffer) error {
			return WriteDelta(w, &Delta{Epoch: 1, Adds: []DeltaEntry{{Key: k, Entry: *e}}})
		}, func(b []byte) error { _, err := ReadDelta(bytes.NewReader(b)); return err }},
	}
	for _, c := range outOfRangeFields {
		t.Run(c.field, func(t *testing.T) {
			for _, r := range readers {
				var buf bytes.Buffer
				if err := r.write(&buf); err != nil {
					t.Fatal(err)
				}
				err := r.read(withServed(t, buf.Bytes(), k, e, c.proto, c.asn, c.ttl))
				var werr *wire.Error
				if !errors.As(err, &werr) || werr.Kind != wire.Implausible || werr.Format != r.format || !strings.Contains(werr.Err.Error(), c.field) {
					t.Errorf("%s with %s out of range returned %v; want an implausible *wire.Error naming %s", r.format, c.field, err, c.field)
				}
			}
		})
	}
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
	k := netmodel.SortedPairs(base)[0].Key
	for _, c := range outOfRangeFields {
		f.Add(withServed(f, ok.Bytes(), k, base[k], c.proto, c.asn, c.ttl))
	}

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
	for _, c := range outOfRangeFields {
		f.Add(withServed(f, ok.Bytes(), addKey, next[addKey], c.proto, c.asn, c.ttl))
	}

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
