package shard

import (
	"io"

	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/wire"
)

// Inventory format ("GPSV", version 2):
//
//	magic "GPSV" | version u8
//	entry count u64 big-endian
//	per entry, in strictly increasing (IP, port) order:
//	  continuous.EncodeServed's fields
//
// Version 1 had no version byte and carried only the observation
// counters; version 2 adds the record fields the serving layer indexes on
// (protocol, ASN, TTL), so a GPSV file is a self-contained serving
// artifact — gpsd serve FILE answers /v1/asn queries from it without the
// checkpoint. Application-layer features stay in checkpoints only.
const (
	stateInventoryMagic   = "GPSV"
	stateInventoryVersion = 2
	// maxInventoryEntries bounds the entry count a file may declare,
	// mirroring the implausibility guards of the checkpoint readers.
	maxInventoryEntries = 1 << 28
	// servedSizeHint is a typical encoded entry: the 6-byte key plus six
	// mostly one-byte uvarints. It only sizes buffers.
	servedSizeHint = 16
)

// WriteInventory serializes a merged continuous inventory canonically:
// the sorted (IP, port) key set, each key followed by its entry's record
// fields and FirstSeen/LastSeen/Stale counters. Two coordinators that
// tracked the same services through the same epochs produce
// byte-identical output whatever their shard layout or transport — the
// determinism contract the distributed CI gate diffs.
func WriteInventory(w io.Writer, inv map[netmodel.Key]*continuous.Entry) error {
	pairs := netmodel.SortedPairs(inv)
	e := make(wire.Enc, 0, 13+servedSizeHint*len(pairs))
	e.Header(stateInventoryMagic, stateInventoryVersion)
	e.U64(uint64(len(pairs)))
	for _, p := range pairs {
		continuous.EncodeServed(&e, p.Key, p.Value)
	}
	_, err := w.Write(e)
	return err
}

// ReadInventory parses WriteInventory output back into a merged
// inventory. The reconstructed entries carry the key, the serving fields
// (protocol, ASN, TTL), and the observation counters; application-layer
// features are not part of the format and come back empty. Every
// malformed input is a *wire.Error with Format "GPSV": foreign bytes,
// another version, a stream cut short (Section "header" or "entry" with
// its index), an implausible entry count, a key at or before the one
// before it (the entries are a strict (IP, port) run), trailing bytes.
func ReadInventory(r io.Reader) (map[netmodel.Key]*continuous.Entry, error) {
	d := wire.NewReader(stateInventoryMagic, r)
	d.At("header", -1)
	d.Header(stateInventoryMagic, stateInventoryVersion)
	n := d.Count(d.U64(), maxInventoryEntries)

	// The capacity hint trusts the header only up to a point: a crafted
	// 13-byte file may declare any count under the cap, and the bytes
	// backing real entries are only proven to exist as the loop reads
	// them — so a short file must fail with a truncation error, not an
	// up-front multi-gigabyte allocation. For the same reason the entries
	// come from a slab that grows by doubling as entries are read, not
	// from one sized by the header: a few allocations per call, not one
	// per entry.
	inv := make(map[netmodel.Key]*continuous.Entry, min(n, 1<<20))
	var slab []continuous.Entry
	var prev netmodel.Key
	for i := 0; i < n && d.Err() == nil; i++ {
		if len(slab) == 0 {
			slab = make([]continuous.Entry, min(n-i, max(i, 1<<10)))
		}
		d.At("entry", i)
		k, e := continuous.DecodeServed(d)
		continuous.KeyAfter(d, i, prev, k)
		prev = k
		slab[0] = e
		inv[k] = &slab[0]
		slab = slab[1:]
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return inv, nil
}
