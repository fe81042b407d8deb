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

// unorderedCase is a GPSV or GPSE encoding whose keyed section is not a
// strict (IP, port) run, or whose GPSE sections share a key, with the
// section and index its reader must refuse it at.
type unorderedCase struct {
	name, format, section string
	index                 int
	data                  []byte
}

// unorderedCases are the encodings no writer emits: a key repeated or
// out of order within a section, and one key in two GPSE sections.
func unorderedCases(tb testing.TB) []unorderedCase {
	a := netmodel.Key{IP: 0x0a000001, Port: 80}
	b := netmodel.Key{IP: 0x0a000001, Port: 443}
	gpsv := func(keys ...netmodel.Key) []byte {
		var e wire.Enc
		e.Header(stateInventoryMagic, stateInventoryVersion)
		e.U64(uint64(len(keys)))
		for _, k := range keys {
			continuous.EncodeServed(&e, k, fuzzEntry(k, 1, 1, 60, 0, 1, 0))
		}
		return e
	}
	gpse := func(adds, updates, removes []netmodel.Key) []byte {
		d := &Delta{BaseEpoch: 1, Epoch: 2, Removes: removes}
		for _, k := range adds {
			d.Adds = append(d.Adds, DeltaEntry{Key: k, Entry: *fuzzEntry(k, 1, 1, 60, 2, 2, 0)})
		}
		for _, k := range updates {
			d.Updates = append(d.Updates, DeltaEntry{Key: k, Entry: *fuzzEntry(k, 1, 1, 60, 0, 2, 0)})
		}
		var buf bytes.Buffer
		if err := WriteDelta(&buf, d); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	ks := func(keys ...netmodel.Key) []netmodel.Key { return keys }
	return []unorderedCase{
		// 49 bytes: one 12-byte entry three times under a count of 3,
		// which a map-building reader served as one entry.
		{"GPSV/repeated", "GPSV", "entry", 1, gpsv(a, a, a)},
		{"GPSV/swapped", "GPSV", "entry", 1, gpsv(b, a)},
		{"GPSE/swapped-adds", "GPSE", "add", 1, gpse(ks(b, a), nil, nil)},
		{"GPSE/swapped-removes", "GPSE", "remove", 1, gpse(nil, nil, ks(b, a))},
		{"GPSE/doubled-remove", "GPSE", "remove", 1, gpse(nil, nil, ks(a, a))},
		{"GPSE/add-and-update", "GPSE", "update", 0, gpse(ks(a), ks(a), nil)},
		{"GPSE/add-and-remove", "GPSE", "remove", 0, gpse(ks(a), nil, ks(a))},
		{"GPSE/update-and-remove", "GPSE", "remove", 1, gpse(nil, ks(b), ks(a, b))},
	}
}

// TestReadersRefuseUnorderedKeys: GPSV entries and each GPSE section are
// written as strict (IP, port) runs, and no key is in two GPSE sections,
// so the readers refuse anything else as Implausible at the offending
// key instead of serving the last copy of a repeated key or applying a
// delta no origin computed.
func TestReadersRefuseUnorderedKeys(t *testing.T) {
	if n := len(unorderedCases(t)[0].data); n != 49 {
		t.Fatalf("repeated-key GPSV is %d bytes; want 49", n)
	}
	for _, c := range unorderedCases(t) {
		t.Run(c.name, func(t *testing.T) {
			var err error
			if c.format == "GPSV" {
				_, err = ReadInventory(bytes.NewReader(c.data))
			} else {
				_, err = ReadDelta(bytes.NewReader(c.data))
			}
			var werr *wire.Error
			if !errors.As(err, &werr) || werr.Kind != wire.Implausible || werr.Format != c.format ||
				werr.Section != c.section || werr.Index != c.index {
				t.Errorf("returned %v; want a %s implausible *wire.Error in %s %d", err, c.format, c.section, c.index)
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
	for _, c := range unorderedCases(f) {
		if c.format == "GPSV" {
			f.Add(c.data)
		}
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
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted % x, which re-encodes to % x", data, buf.Bytes())
		}
		inv2, err := ReadInventory(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading canonical bytes: %v", err)
		}
		diffInventories(t, inv, inv2)
	})
}

// FuzzApplyDelta drives arbitrary bytes through the GPSE reader and the
// delta application path. An accepted delta must write back to exactly
// the bytes it was read from, and an applicable one must agree with
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
	for _, c := range unorderedCases(f) {
		if c.format == "GPSE" {
			f.Add(c.data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDelta(bytes.NewReader(data))
		if err != nil {
			if !typedShardError(err, "GPSE") {
				t.Fatalf("ReadDelta: untyped error %T: %v", err, err)
			}
			return
		}
		// An accepted delta is canonical: it writes back to exactly its
		// bytes, and its sections are strict runs that share no key.
		var again bytes.Buffer
		if err := WriteDelta(&again, d); err != nil {
			t.Fatalf("re-encoding accepted delta: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted % x, which re-encodes to % x", data, again.Bytes())
		}
		seen := make(map[netmodel.Key]bool, d.Size())
		for _, keys := range [][]netmodel.Key{deltaKeys(d.Adds), deltaKeys(d.Updates), d.Removes} {
			for i, k := range keys {
				if i > 0 && keys[i-1].Compare(k) >= 0 || seen[k] {
					t.Fatalf("accepted a delta whose key %v is out of order or in two sections", k)
				}
				seen[k] = true
			}
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

// deltaKeys returns the keys of a delta section.
func deltaKeys(entries []DeltaEntry) []netmodel.Key {
	out := make([]netmodel.Key, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
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

// FuzzApplyStep drives arbitrary bytes through ApplyStep over each base a
// runner stepped from (runnerSteps), seeded with the runner's own steps:
// re-verifications, stale marks, evictions, new services and a refresh
// with changed features. A refusal is a *wire.Error naming the step
// format. An accepted state is one GPSC reads back, and the canonical
// step to it applies to the same bytes: ApplyStep(b, EncodeStep(b, n))
// re-encodes to n.
func FuzzApplyStep(f *testing.F) {
	pairs := runnerSteps(f)
	for i, p := range pairs {
		step := EncodeStep(p[0], p[1])
		f.Add(uint8(i), step)
		f.Add(uint8(i), step[:len(step)/2])
	}
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		base := pairs[int(which)%len(pairs)][0]
		st, err := ApplyStep(base, data)
		if err != nil {
			var werr *wire.Error
			if !errors.As(err, &werr) || werr.Format != stepFormat {
				t.Fatalf("ApplyStep: untyped error %T: %v", err, err)
			}
			return
		}
		blob, err := EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeState(blob); err != nil {
			t.Fatalf("an applied state GPSC refuses: %v", err)
		}
		again, err := ApplyStep(base, EncodeStep(base, st))
		if err != nil {
			t.Fatalf("the canonical step to an applied state: %v", err)
		}
		if !bytes.Equal(stateBytes(t, again), blob) {
			t.Fatal("the canonical step to an applied state applies to other bytes")
		}
	})
}
