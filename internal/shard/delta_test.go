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

// invBytes is the equality the replication path is judged on: the
// canonical GPSV serialization. Two inventories that agree on every
// serving field produce identical bytes.
func invBytes(t *testing.T, inv map[netmodel.Key]*continuous.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteInventory(&buf, inv); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaProperty pins the delta contract across a real multi-epoch
// churn run: for every consecutive pair of committed inventories,
// apply(delta(A, B), A) == B byte-for-byte under GPSV, and chaining all
// deltas from the seeded inventory reconstructs the final epoch exactly.
func TestDeltaProperty(t *testing.T) {
	u, seedSet := testWorld(t, 29)
	c := NewCoordinator(seedSet, coordConfig(3))

	var views []map[netmodel.Key]*continuous.Entry
	seeded, _ := c.Inventory()
	views = append(views, seeded)
	c.SetCommitHook(func(epoch int, inv map[netmodel.Key]*continuous.Entry) {
		views = append(views, inv)
	})

	world := u
	for e := 1; e <= 4; e++ {
		world = netmodel.Churn(world, netmodel.DefaultChurn(300+int64(e)))
		if _, err := c.Epoch(world); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	if len(views) != 5 {
		t.Fatalf("captured %d inventory views; want 5", len(views))
	}

	// Pairwise: each delta advances its base to its target exactly.
	chain := CloneInventory(views[0])
	var sawChanges bool
	for e := 1; e < len(views); e++ {
		d := ComputeDelta(views[e-1], views[e], e-1, e)
		if d.BaseEpoch != e-1 || d.Epoch != e {
			t.Fatalf("delta epochs %d→%d; want %d→%d", d.BaseEpoch, d.Epoch, e-1, e)
		}
		if d.Size() > 0 {
			sawChanges = true
		}
		applied := CloneInventory(views[e-1])
		if err := ApplyDelta(applied, d); err != nil {
			t.Fatalf("apply %d→%d: %v", e-1, e, err)
		}
		if !bytes.Equal(invBytes(t, applied), invBytes(t, views[e])) {
			t.Fatalf("apply(delta(%d,%d)) diverges from the committed epoch %d inventory", e-1, e, e)
		}
		// The chained replica view advances through the same delta.
		if err := ApplyDelta(chain, d); err != nil {
			t.Fatalf("chain apply %d→%d: %v", e-1, e, err)
		}
	}
	if !sawChanges {
		t.Fatal("churn run produced no delta changes; property test is vacuous")
	}
	if !bytes.Equal(invBytes(t, chain), invBytes(t, views[len(views)-1])) {
		t.Fatal("chained deltas from the seed diverge from the final inventory")
	}

	// An empty diff is representable and a no-op.
	empty := ComputeDelta(views[1], views[1], 1, 1)
	if empty.Size() != 0 {
		t.Fatalf("self-delta carries %d changes", empty.Size())
	}
	if err := ApplyDelta(CloneInventory(views[1]), empty); err != nil {
		t.Fatalf("applying an empty delta: %v", err)
	}
}

// TestDeltaIgnoresFeatures pins that application-layer features — which
// the GPSV format drops — never produce delta traffic: a replica
// bootstrapped from GPSV (feature-less) must see empty deltas when only
// features changed upstream.
func TestDeltaIgnoresFeatures(t *testing.T) {
	k := netmodel.Key{IP: asndb.MustParseIP("10.0.0.1"), Port: 443}
	base := map[netmodel.Key]*continuous.Entry{k: {
		Rec:       dataset.Record{IP: k.IP, Port: 443, Proto: features.ProtocolTLS, ASN: 64500, TTL: 64},
		FirstSeen: 1, LastSeen: 3,
	}}
	next := CloneInventory(base)
	next[k].Rec.Feats = features.NewSet(features.Value{Key: features.KeyProtocol, Val: "https"})
	if d := ComputeDelta(base, next, 1, 2); d.Size() != 0 {
		t.Fatalf("feature-only change produced %d delta entries; want 0", d.Size())
	}
}

func TestApplyDeltaBaseMismatch(t *testing.T) {
	k := netmodel.Key{IP: asndb.MustParseIP("10.0.0.1"), Port: 80}
	k2 := netmodel.Key{IP: asndb.MustParseIP("10.0.0.2"), Port: 80}
	entry := func() *continuous.Entry {
		return &continuous.Entry{Rec: dataset.Record{IP: k.IP, Port: 80}, LastSeen: 1}
	}
	have := map[netmodel.Key]*continuous.Entry{k: entry()}

	add := &Delta{Adds: []DeltaEntry{{Key: k, Entry: *entry()}}}
	if err := ApplyDelta(CloneInventory(have), add); err == nil {
		t.Error("adding an existing key succeeded; want a base-mismatch error")
	}
	upd := &Delta{Updates: []DeltaEntry{{Key: k2, Entry: *entry()}}}
	if err := ApplyDelta(CloneInventory(have), upd); err == nil {
		t.Error("updating a missing key succeeded; want a base-mismatch error")
	}
	rm := &Delta{Removes: []netmodel.Key{k2}}
	if err := ApplyDelta(CloneInventory(have), rm); err == nil {
		t.Error("removing a missing key succeeded; want a base-mismatch error")
	}
}

// TestCloneInventory pins that clones share nothing with the original:
// the replica applies deltas to a clone while the feed retains the
// as-committed view, so aliasing would corrupt the feed's base.
func TestCloneInventory(t *testing.T) {
	k := netmodel.Key{IP: asndb.MustParseIP("10.0.0.1"), Port: 22}
	orig := map[netmodel.Key]*continuous.Entry{k: {LastSeen: 5}}
	cp := CloneInventory(orig)
	cp[k].LastSeen = 9
	cp[netmodel.Key{IP: k.IP, Port: 23}] = &continuous.Entry{}
	if orig[k].LastSeen != 5 || len(orig) != 1 {
		t.Error("mutating the clone reached the original inventory")
	}
}

// TestDeltaWireRoundTrip pins the GPSE write→read contract and its
// canonical-bytes property, mirroring the GPSV round trip.
func TestDeltaWireRoundTrip(t *testing.T) {
	states := epochStates(t, 2)
	inv := MergeInventories(states)
	next := CloneInventory(inv)
	// Manufacture all three change kinds against a real inventory.
	var removed, updated netmodel.Key
	i := 0
	for k := range next {
		switch i {
		case 0:
			removed = k
			delete(next, k)
		case 1:
			updated = k
			next[k].LastSeen += 3
			next[k].Stale = 0
		}
		i++
		if i > 1 {
			break
		}
	}
	addKey := netmodel.Key{IP: asndb.MustParseIP("203.0.113.9"), Port: 8443}
	next[addKey] = &continuous.Entry{
		Rec:       dataset.Record{IP: addKey.IP, Port: addKey.Port, Proto: features.ProtocolTLS, ASN: 64499, TTL: 57},
		FirstSeen: 2, LastSeen: 6, Stale: 1,
	}

	d := ComputeDelta(inv, next, 4, 5)
	if len(d.Adds) != 1 || len(d.Updates) != 1 || len(d.Removes) != 1 {
		t.Fatalf("delta shape adds=%d updates=%d removes=%d; want 1/1/1",
			len(d.Adds), len(d.Updates), len(d.Removes))
	}
	if d.Adds[0].Key != addKey || d.Updates[0].Key != updated || d.Removes[0] != removed {
		t.Fatal("delta attributed changes to the wrong keys")
	}

	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	got, err := ReadDelta(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseEpoch != 4 || got.Epoch != 5 {
		t.Fatalf("round trip epochs %d→%d; want 4→5", got.BaseEpoch, got.Epoch)
	}
	// Applying the parsed delta must land exactly where the original does.
	applied := CloneInventory(inv)
	if err := ApplyDelta(applied, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(invBytes(t, applied), invBytes(t, next)) {
		t.Fatal("parsed delta applies differently than the computed one")
	}

	var again bytes.Buffer
	if err := WriteDelta(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, again.Bytes()) {
		t.Error("re-serializing the parsed delta changed the bytes")
	}

	// Negative base epochs (the bootstrap sentinel) must survive the wire.
	neg := &Delta{BaseEpoch: -1, Epoch: 0}
	buf.Reset()
	if err := WriteDelta(&buf, neg); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDelta(&buf)
	if err != nil || back.BaseEpoch != -1 || back.Epoch != 0 {
		t.Fatalf("negative-epoch round trip: %+v, %v", back, err)
	}
}

// TestReadDeltaTypedErrors mirrors the GPSV reader's error contract:
// foreign magic, unknown versions, every truncation point and trailing
// bytes are each a GPSE *wire.Error of the matching kind.
func TestReadDeltaTypedErrors(t *testing.T) {
	mk := func(i int) netmodel.Key {
		return netmodel.Key{IP: asndb.IP(0x0a000001 + uint32(i)), Port: 443}
	}
	ent := func(i int) continuous.Entry {
		return continuous.Entry{
			Rec:       dataset.Record{IP: mk(i).IP, Port: 443, Proto: features.ProtocolTLS, ASN: 64500, TTL: 64},
			FirstSeen: 1, LastSeen: 2 + i, Stale: i % 2,
		}
	}
	d := &Delta{
		BaseEpoch: 3, Epoch: 4,
		Adds:    []DeltaEntry{{Key: mk(0), Entry: ent(0)}, {Key: mk(1), Entry: ent(1)}},
		Updates: []DeltaEntry{{Key: mk(2), Entry: ent(2)}},
		Removes: []netmodel.Key{mk(3)},
	}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	var werr *wire.Error
	if _, err := ReadDelta(bytes.NewReader([]byte("GPSXxxxxxxxx"))); !errors.As(err, &werr) ||
		werr.Format != "GPSE" || werr.Kind != wire.BadMagic || !strings.Contains(err.Error(), `"GPSX"`) {
		t.Errorf("foreign magic: %v; want a GPSE bad-magic *wire.Error naming GPSX", err)
	}
	future := append([]byte(deltaMagic), 99, 0, 0)
	if _, err := ReadDelta(bytes.NewReader(future)); !errors.As(err, &werr) ||
		werr.Kind != wire.BadVersion || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("future version: %v; want a bad-version *wire.Error naming 99", err)
	}
	huge := append([]byte(deltaMagic), deltaVersion, 0, 2, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := ReadDelta(bytes.NewReader(huge)); !errors.As(err, &werr) || werr.Kind != wire.Implausible || werr.Section != "add" {
		t.Errorf("add count 2^35-1: %v; want an implausible add count", err)
	}

	sections := map[string]bool{"header": true, "add": true, "update": true, "remove": true}
	for cut := 0; cut < len(blob); cut++ {
		_, err := ReadDelta(bytes.NewReader(blob[:cut]))
		if !errors.As(err, &werr) || werr.Kind != wire.Truncated || !errors.Is(err, io.ErrUnexpectedEOF) || !sections[werr.Section] {
			t.Fatalf("cut at %d: %v; want a truncated *wire.Error in a known section", cut, err)
		}
		// Inside the magic a cut is still a (header) truncation.
		if cut < len(deltaMagic) && werr.Section != "header" {
			t.Fatalf("cut at %d: %v; want header truncation", cut, err)
		}
	}

	if _, err := ReadDelta(bytes.NewReader(append(append([]byte{}, blob...), 0xFF))); !wire.IsKind(err, wire.Trailing) {
		t.Errorf("trailing data: %v; want a trailing-data *wire.Error", err)
	}
}
