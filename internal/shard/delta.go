package shard

import (
	"fmt"
	"io"

	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/wire"
)

// Epoch-delta format ("GPSE", version 1):
//
//	magic "GPSE" | version u8
//	baseEpoch varint | epoch varint
//	addCount uvarint    | adds    (sorted by (IP, port))
//	updateCount uvarint | updates (sorted by (IP, port))
//	removeCount uvarint | removes (sorted by (IP, port))
//	per add/update entry: continuous.EncodeServed's fields
//	per remove: continuous.EncodeKey's IP u32 | port u16 (big-endian)
//
// Each section is a strict (IP, port) run, and no key is in two sections.
//
// A delta carries exactly the GPSV serving fields, so a chain of deltas
// applied to a GPSV bootstrap reconstructs the origin's inventory
// byte-identically under WriteInventory — the contract the replication
// CI gate diffs. Churn is ~9% per 10 days (§3), so a delta is roughly an
// order of magnitude smaller than the full snapshot it advances.
const (
	deltaMagic   = "GPSE"
	deltaVersion = 1
)

// DeltaEntry is one added or updated service in a delta: the (IP, port)
// key plus the GPSV serving fields (Entry.Rec.Feats is not part of the
// format and stays empty).
type DeltaEntry struct {
	Key   netmodel.Key
	Entry continuous.Entry
}

// Delta is the inventory difference between two committed epochs:
// services that appeared (Adds), changed serving fields or observation
// counters (Updates), and disappeared (Removes), each sorted by
// (IP, port) so equal diffs always encode to equal bytes. Applying a
// delta to the BaseEpoch inventory yields the Epoch inventory exactly.
type Delta struct {
	BaseEpoch int
	Epoch     int
	Adds      []DeltaEntry
	Updates   []DeltaEntry
	Removes   []netmodel.Key
}

// Size returns the number of changes the delta carries.
func (d *Delta) Size() int { return len(d.Adds) + len(d.Updates) + len(d.Removes) }

// servedEqual reports whether two entries agree on every field the GPSV
// format (and therefore the serving layer and the replication feed)
// carries. Application-layer features are deliberately excluded: they
// never cross the inventory formats, so a feature-only change must not
// produce a delta entry.
func servedEqual(a, b *continuous.Entry) bool {
	return a.Rec.Proto == b.Rec.Proto && a.Rec.ASN == b.Rec.ASN && a.Rec.TTL == b.Rec.TTL &&
		a.FirstSeen == b.FirstSeen && a.LastSeen == b.LastSeen && a.Stale == b.Stale
}

// servedEntry copies the GPSV-visible fields of e for key k.
func servedEntry(k netmodel.Key, e *continuous.Entry) continuous.Entry {
	return continuous.Entry{
		Rec: dataset.Record{
			IP: k.IP, Port: k.Port,
			Proto: e.Rec.Proto, ASN: e.Rec.ASN, TTL: e.Rec.TTL,
		},
		FirstSeen: e.FirstSeen, LastSeen: e.LastSeen, Stale: e.Stale,
	}
}

// ComputeDelta diffs two merged inventories (the views MergeInventories
// builds at consecutive epoch commits) into the canonical delta that
// advances base to next. Neither input is retained or mutated. It is a
// merge-join of the two inventories in canonical order, so the adds,
// updates and removes come out sorted as they are found. A first join
// counts them, so the second fills lists of exactly their size: a real
// epoch updates most of the inventory, and growing that list by appends
// would allocate it several times over.
func ComputeDelta(base, next map[netmodel.Key]*continuous.Entry, baseEpoch, epoch int) *Delta {
	b, n := netmodel.SortedPairs(base), netmodel.SortedPairs(next)
	var adds, updates, removes int
	mergeJoin(b, n, func(old, cur *inventoryPair) {
		switch {
		case old == nil:
			adds++
		case cur == nil:
			removes++
		case !servedEqual(old.Value, cur.Value):
			updates++
		}
	})
	d := &Delta{BaseEpoch: baseEpoch, Epoch: epoch,
		Adds: sized[DeltaEntry](adds), Updates: sized[DeltaEntry](updates), Removes: sized[netmodel.Key](removes)}
	mergeJoin(b, n, func(old, cur *inventoryPair) {
		switch {
		case old == nil:
			d.Adds = append(d.Adds, DeltaEntry{Key: cur.Key, Entry: servedEntry(cur.Key, cur.Value)})
		case cur == nil:
			d.Removes = append(d.Removes, old.Key)
		case !servedEqual(old.Value, cur.Value):
			d.Updates = append(d.Updates, DeltaEntry{Key: cur.Key, Entry: servedEntry(cur.Key, cur.Value)})
		}
	})
	return d
}

type inventoryPair = netmodel.Pair[*continuous.Entry]

// mergeJoin walks two key-sorted runs in step and calls visit once per
// key of either: with old nil for a key only cur's run holds, cur nil for
// one only old's holds, both for a key they share.
func mergeJoin(olds, curs []inventoryPair, visit func(old, cur *inventoryPair)) {
	for len(olds) > 0 || len(curs) > 0 {
		c := 0
		switch {
		case len(curs) == 0:
			c = -1
		case len(olds) == 0:
			c = 1
		default:
			c = olds[0].Key.Compare(curs[0].Key)
		}
		switch {
		case c < 0:
			visit(&olds[0], nil)
			olds = olds[1:]
		case c > 0:
			visit(nil, &curs[0])
			curs = curs[1:]
		default:
			visit(&olds[0], &curs[0])
			olds, curs = olds[1:], curs[1:]
		}
	}
}

// sized returns an empty list with room for n elements, nil for none —
// what appending n elements to a nil list ends with, allocated once.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// ApplyDelta applies a delta to an inventory in place: adds must be new
// keys, updates and removes must hit existing ones — a mismatch means
// the delta was derived against a different base than inv and returns an
// error with inv partially updated (apply to a CloneInventory copy when
// the original must survive a failure). ApplyDelta(ComputeDelta(A, B), A)
// reproduces B exactly on the GPSV serving fields. Each entry it puts in
// inv is a copy of its own, so an in-place applier that keeps inv for
// many epochs holds no more than the entries it still serves.
func ApplyDelta(inv map[netmodel.Key]*continuous.Entry, d *Delta) error {
	for _, a := range d.Adds {
		if _, ok := inv[a.Key]; ok {
			return fmt.Errorf("shard: delta %d→%d adds %v, which the base already holds", d.BaseEpoch, d.Epoch, a.Key)
		}
		e := a.Entry
		inv[a.Key] = &e
	}
	for _, u := range d.Updates {
		if _, ok := inv[u.Key]; !ok {
			return fmt.Errorf("shard: delta %d→%d updates %v, which the base does not hold", d.BaseEpoch, d.Epoch, u.Key)
		}
		e := u.Entry
		inv[u.Key] = &e
	}
	for _, k := range d.Removes {
		if _, ok := inv[k]; !ok {
			return fmt.Errorf("shard: delta %d→%d removes %v, which the base does not hold", d.BaseEpoch, d.Epoch, k)
		}
		delete(inv, k)
	}
	return nil
}

// CloneInventory copies an inventory map and its entries: the copy can
// be mutated (or handed to ApplyDelta) without touching the original.
// The copy stays deep, entries and all, because callers edit a clone's
// entries in place while the original lives on — a replica keeps every
// map it has committed frozen, and a churned inventory is a clone with
// some entries re-observed. The entries are copied into one slab rather
// than allocated one by one.
func CloneInventory(inv map[netmodel.Key]*continuous.Entry) map[netmodel.Key]*continuous.Entry {
	out := make(map[netmodel.Key]*continuous.Entry, len(inv))
	slab := make([]continuous.Entry, len(inv))
	i := 0
	for k, e := range inv {
		slab[i] = *e
		out[k] = &slab[i]
		i++
	}
	return out
}

// WriteDelta serializes a delta canonically. Entries and removes are
// written in their slice order; ComputeDelta output is already sorted,
// so equal diffs produce equal bytes.
func WriteDelta(w io.Writer, d *Delta) error {
	e := make(wire.Enc, 0, 32+servedSizeHint*d.Size())
	e.Header(deltaMagic, deltaVersion)
	e.Varint(int64(d.BaseEpoch))
	e.Varint(int64(d.Epoch))
	for _, entries := range [][]DeltaEntry{d.Adds, d.Updates} {
		e.Uvarint(uint64(len(entries)))
		for i := range entries {
			continuous.EncodeServed(&e, entries[i].Key, &entries[i].Entry)
		}
	}
	e.Uvarint(uint64(len(d.Removes)))
	for _, k := range d.Removes {
		continuous.EncodeKey(&e, k)
	}
	_, err := w.Write(e)
	return err
}

// ReadDelta parses WriteDelta output. Every malformed input is a
// *wire.Error with Format "GPSE": foreign bytes, another version, a
// stream cut short (Section "header", "add", "update" or "remove", with
// the entry index inside a section), an implausible count, a key at or
// before the one before it in its section, a key an earlier section
// holds, trailing bytes.
func ReadDelta(r io.Reader) (*Delta, error) {
	d := wire.NewReader(deltaMagic, r)
	d.At("header", -1)
	d.Header(deltaMagic, deltaVersion)
	out := &Delta{}
	out.BaseEpoch = int(d.Varint())
	out.Epoch = int(d.Varint())
	out.Adds = readSection(d, "add", decodeDeltaEntry)
	out.Updates = readSection(d, "update", decodeDeltaEntry, out.Adds)
	out.Removes = readSection(d, "remove", decodeRemove, out.Adds, out.Updates)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

func decodeDeltaEntry(d *wire.Dec) (netmodel.Key, DeltaEntry) {
	k, e := continuous.DecodeServed(d)
	return k, DeltaEntry{Key: k, Entry: e}
}

func decodeRemove(d *wire.Dec) (netmodel.Key, netmodel.Key) {
	k := continuous.DecodeKey(d)
	return k, k
}

// readSection reads one GPSE section: a count, then that many elements
// through decode. Their keys must be a strict (IP, port) run sharing no
// key with the sections read before it (adds, then updates), which it
// walks with one cursor each.
func readSection[T any](d *wire.Dec, section string, decode func(*wire.Dec) (netmodel.Key, T), earlier ...[]DeltaEntry) []T {
	d.At(section, -1)
	n := d.Count(d.Uvarint(), maxInventoryEntries)
	var out []T
	var prev netmodel.Key
	at := make([]int, len(earlier))
	for i := 0; i < n && d.Err() == nil; i++ {
		d.At(section, i)
		k, v := decode(d)
		continuous.KeyAfter(d, i, prev, k)
		prev = k
		for j, run := range earlier {
			for at[j] < len(run) && run[at[j]].Key.Compare(k) < 0 {
				at[j]++
			}
			if at[j] < len(run) && run[at[j]].Key == k {
				d.Fail(wire.Implausible, fmt.Errorf("key %v is in the %s section too", k, [...]string{"add", "update"}[j]))
			}
		}
		out = append(out, v)
	}
	return out
}
