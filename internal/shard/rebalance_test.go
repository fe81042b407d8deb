package shard

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/netmodel"
)

// rebalanceStates runs a small coordinator for two epochs and returns its
// per-shard states: a realistic hash-split layout worth re-balancing.
func rebalanceStates(t *testing.T, n int) []*continuous.State {
	t.Helper()
	u, seedSet := testWorld(t, 17)
	c := NewCoordinator(seedSet, coordConfig(n))
	world := u
	for e := 1; e <= 2; e++ {
		world = netmodel.Churn(world, netmodel.DefaultChurn(200+int64(e)))
		if _, err := c.Epoch(world); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	return c.States()
}

func checkpointBytes(t *testing.T, states []*continuous.State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, states); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSplitJoinRoundTrip(t *testing.T) {
	const n = 2
	states := rebalanceStates(t, n)
	before := checkpointBytes(t, states)

	split, err := SplitStates(states)
	if err != nil {
		t.Fatal(err)
	}
	if len(split) != 2*n {
		t.Fatalf("split produced %d states; want %d", len(split), 2*n)
	}
	// Every successor shard owns exactly its partition under the doubled
	// layout, and the split loses no entries.
	total := 0
	for i, st := range split {
		if st.Epoch != states[i%n].Epoch {
			t.Errorf("split shard %d at epoch %d; parent at %d", i, st.Epoch, states[i%n].Epoch)
		}
		for _, e := range st.Known {
			if got := asndb.ShardOf(e.Rec.IP, 2*n); got != i {
				t.Errorf("split shard %d tracks %v owned by shard %d", i, e.Rec.Key(), got)
			}
		}
		total += len(st.Known)
	}
	want := 0
	for _, st := range states {
		want += len(st.Known)
	}
	if total != want {
		t.Errorf("split tracks %d entries; parents tracked %d", total, want)
	}

	joined, err := JoinStates(split)
	if err != nil {
		t.Fatal(err)
	}
	if after := checkpointBytes(t, joined); !bytes.Equal(before, after) {
		t.Error("split+join did not round-trip the checkpoint byte-identically")
	}
}

// A split layout must keep scanning correctly: resuming a coordinator on
// the doubled shard count and running an epoch is the "no rescan" half of
// the re-balancing contract.
func TestSplitStatesResumeAndRun(t *testing.T) {
	const n = 2
	states := rebalanceStates(t, n)
	split, err := SplitStates(states)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ResumeCoordinator(split, coordConfig(2*n))
	if err != nil {
		t.Fatal(err)
	}
	u, _ := testWorld(t, 17)
	world := u
	for e := 1; e <= 3; e++ {
		world = netmodel.Churn(world, netmodel.DefaultChurn(200+int64(e)))
		if e <= 2 {
			continue // replay the churn the states already saw
		}
		if _, err := c.Epoch(world); err != nil {
			t.Fatalf("post-split epoch: %v", err)
		}
	}
	if _, conflicts := c.Inventory(); conflicts != 0 {
		t.Errorf("post-split inventory has %d conflicts; want 0", conflicts)
	}
}

func TestJoinRejectsBadInput(t *testing.T) {
	states := rebalanceStates(t, 2)

	if _, err := JoinStates(states[:1]); err == nil {
		t.Error("join accepted an odd shard count")
	}
	if _, err := SplitStates(nil); err == nil {
		t.Error("split accepted zero states")
	}

	split, err := SplitStates(states)
	if err != nil {
		t.Fatal(err)
	}
	// Mismatched epochs across a pair of halves must be rejected.
	split[2].Epoch++
	if _, err := JoinStates(split); err == nil || !strings.Contains(err.Error(), "epochs differ") {
		t.Errorf("join of mismatched epochs returned %v", err)
	}
	split[2].Epoch--

	// A foreign entry (wrong hash partition) must abort both directions.
	// A run holds no key apart from its record, so the entry carries it.
	var foreign continuous.Entry
	for ip := asndb.IP(0x0a000000); ; ip++ {
		if asndb.ShardOf(ip, 4) == 3 {
			foreign.Rec = dataset.Record{IP: ip, Port: 80}
			break
		}
	}
	i, _ := slices.BinarySearchFunc(split[0].Known, foreign, func(a, b continuous.Entry) int { return a.Rec.Key().Compare(b.Rec.Key()) })
	split[0].Known = slices.Insert(split[0].Known, i, foreign)
	if _, err := JoinStates(split); err == nil {
		t.Error("join accepted a foreign entry")
	}
	// Treating the first two quarters as a 2-way layout re-hashes the
	// shard-3 entry to shard 3 of 4 — outside {0, 2} — so the split must
	// detect it.
	if _, err := SplitStates(split[:2]); err == nil {
		t.Error("split accepted a foreign entry")
	}
}

func TestWriteInventoryCanonical(t *testing.T) {
	states := rebalanceStates(t, 2)
	inv, _ := MergeInventories(states)

	var a, b bytes.Buffer
	if err := WriteInventory(&a, inv); err != nil {
		t.Fatal(err)
	}
	if err := WriteInventory(&b, inv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two writes of the same inventory differ")
	}
	if !bytes.HasPrefix(a.Bytes(), []byte(stateInventoryMagic)) {
		t.Errorf("inventory missing %q magic", stateInventoryMagic)
	}

	// A split layout merges to the same inventory bytes: re-balancing
	// must not change what the fleet believes it knows.
	split, err := SplitStates(states)
	if err != nil {
		t.Fatal(err)
	}
	splitInv, conflicts := MergeInventories(split)
	if conflicts != 0 {
		t.Fatalf("split inventory has %d conflicts", conflicts)
	}
	var c bytes.Buffer
	if err := WriteInventory(&c, splitInv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("split layout serialized a different inventory")
	}
}
