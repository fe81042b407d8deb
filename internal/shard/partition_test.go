package shard

import (
	"bytes"
	"strings"
	"testing"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/netmodel"
)

// epochStates runs a small n-shard coordinator for two epochs and
// returns its per-shard states: a realistic hash-split layout.
func epochStates(t *testing.T, n int) []*continuous.State {
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

func stateBytes(t *testing.T, st *continuous.State) []byte {
	t.Helper()
	blob, err := EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestPartitionMergeRoundTrip: a 4-shard run merged and re-partitioned at
// any count puts each key in exactly the shard that owns it, and merging
// the parts restores the run byte for byte. Partitioning at the count the
// run was made with restores every shard's own state.
func TestPartitionMergeRoundTrip(t *testing.T) {
	states := epochStates(t, 4)
	run, err := Merge(states)
	if err != nil {
		t.Fatal(err)
	}
	want := stateBytes(t, run)
	for _, n := range []int{1, 2, 3, 8} {
		parts := Partition(run, n)
		if len(parts) != n {
			t.Fatalf("Partition(run, %d) made %d parts", n, len(parts))
		}
		total := 0
		for i, p := range parts {
			if p.Epoch != run.Epoch {
				t.Errorf("n=%d: part %d at epoch %d; run at %d", n, i, p.Epoch, run.Epoch)
			}
			for _, e := range p.Known {
				if !asndb.ShardOwns(e.Rec.IP, i, n) {
					t.Errorf("n=%d: part %d holds %v, which shard %d owns", n, i, e.Rec.Key(), asndb.ShardOf(e.Rec.IP, n))
				}
			}
			total += len(p.Known)
		}
		if total != len(run.Known) {
			t.Errorf("n=%d: parts hold %d entries; run holds %d", n, total, len(run.Known))
		}
		merged, err := Merge(parts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stateBytes(t, merged), want) {
			t.Errorf("n=%d: Merge(Partition(run)) differs from the run", n)
		}
	}
	for i, p := range Partition(run, 4) {
		if !bytes.Equal(stateBytes(t, p), stateBytes(t, states[i])) {
			t.Errorf("re-partitioned shard %d differs from the shard's own state", i)
		}
	}
}

// TestPartitionResumeAndRun: a run re-partitioned at another count keeps
// scanning — the coordinator resumes on the new layout and runs an epoch
// that leaves the shards disjoint.
func TestPartitionResumeAndRun(t *testing.T) {
	run, err := Merge(epochStates(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ResumeCoordinator(Partition(run, 3), coordConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	u, _ := testWorld(t, 17)
	world := u
	for e := 1; e <= 3; e++ {
		world = netmodel.Churn(world, netmodel.DefaultChurn(200+int64(e)))
	}
	if _, err := c.Epoch(world); err != nil {
		t.Fatalf("re-partitioned epoch: %v", err)
	}
	checkDisjoint(t, c.States())
}

// TestMergeRejectsBadInput: states that are not one commit of one
// coordinator — none at all, at differing epochs, or tracking one service
// twice — are refused rather than written as a run.
func TestMergeRejectsBadInput(t *testing.T) {
	states := epochStates(t, 2)
	if _, err := Merge(nil); err == nil {
		t.Error("merge accepted zero states")
	}

	states[1].Epoch++
	if _, err := Merge(states); err == nil || !strings.Contains(err.Error(), "epochs differ") {
		t.Errorf("merge of mismatched epochs returned %v", err)
	}
	states[1].Epoch--

	overlap := []*continuous.State{states[0], {Epoch: states[0].Epoch, Known: states[0].Known[:1]}}
	if _, err := Merge(overlap); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("merge of overlapping states returned %v", err)
	}
}

func TestWriteInventoryCanonical(t *testing.T) {
	states := epochStates(t, 2)
	inv := MergeInventories(states)

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

	// Another layout merges to the same inventory bytes: re-sharding
	// must not change what the fleet believes it knows.
	run, err := Merge(states)
	if err != nil {
		t.Fatal(err)
	}
	parts := Partition(run, 3)
	checkDisjoint(t, parts)
	otherInv := MergeInventories(parts)
	var c bytes.Buffer
	if err := WriteInventory(&c, otherInv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("3-way layout serialized a different inventory")
	}
}
