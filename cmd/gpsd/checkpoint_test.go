package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gps"
	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/shard"
	"gps/internal/wire/wiretest"
)

// testStates builds a small two-shard coordinator state worth
// checkpointing.
func testStates(t *testing.T, shards int) []*continuous.State {
	t.Helper()
	u := netmodel.Generate(netmodel.TestParams(3))
	seedSet := gps.CollectSeed(u, 0.05, 3^0x5eed)
	seedSet = seedSet.FilterPorts(seedSet.EligiblePorts(2))
	cfg := shard.Config{
		Shards:     shards,
		Continuous: continuous.Config{Pipeline: gps.Config{Workers: 1, Seed: 3}},
	}
	coord := shard.NewCoordinator(seedSet, cfg)
	if _, err := coord.Epoch(netmodel.Churn(u, netmodel.DefaultChurn(4))); err != nil {
		t.Fatal(err)
	}
	return coord.States()
}

func testWorldID(shards int) worldID {
	return worldID{Seed: 3, Prefixes: 16, Density: 0.03, Shards: shards}
}

func TestCheckpointRoundtrip(t *testing.T) {
	states := testStates(t, 2)
	path := filepath.Join(t.TempDir(), "gpsd.ckpt")
	world := testWorldID(2)
	topo := topology{Workers: 3, Assign: []int{0, 2}}
	if err := saveCheckpoint(path, world, topo, states); err != nil {
		t.Fatal(err)
	}
	got, gotTopo, err := loadCheckpoint(path, world)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(states) {
		t.Fatalf("loaded %d shard states; want %d", len(got), len(states))
	}
	for i := range got {
		if got[i].Epoch != states[i].Epoch || len(got[i].Known) != len(states[i].Known) {
			t.Errorf("shard %d: epoch %d/%d known %d/%d",
				i, got[i].Epoch, states[i].Epoch, len(got[i].Known), len(states[i].Known))
		}
	}
	if gotTopo.Workers != topo.Workers || len(gotTopo.Assign) != 2 ||
		gotTopo.Assign[0] != 0 || gotTopo.Assign[1] != 2 {
		t.Errorf("topology did not round-trip: %+v", gotTopo)
	}
	// No leftover temp files after a successful save.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir holds %d files; want 1", len(entries))
	}
}

// An in-process checkpoint records no workers; every shard is unassigned
// and stays that way through a load.
func TestCheckpointLocalTopology(t *testing.T) {
	states := testStates(t, 2)
	path := filepath.Join(t.TempDir(), "gpsd.ckpt")
	world := testWorldID(2)
	// An in-process coordinator's executors are not workers: the topology
	// read off it is the local one, and its exit line names no fleet.
	coord, err := shard.ResumeCoordinator(states, shard.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := exitSuffix(coord); got != "" {
		t.Errorf("in-process exit suffix %q; want none", got)
	}
	if err := saveCheckpoint(path, world, topologyOf(coord), states); err != nil {
		t.Fatal(err)
	}
	_, topo, err := loadCheckpoint(path, world)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Workers != 0 || topo.Assign[0] != -1 || topo.Assign[1] != -1 {
		t.Errorf("local topology did not round-trip: %+v", topo)
	}
}

func TestCheckpointMissingIsFreshStart(t *testing.T) {
	_, _, err := loadCheckpoint(filepath.Join(t.TempDir(), "absent"), testWorldID(1))
	if !errors.Is(err, errNoCheckpoint) {
		t.Errorf("missing checkpoint returned %v; want errNoCheckpoint", err)
	}
}

func TestCheckpointWorldMismatch(t *testing.T) {
	states := testStates(t, 2)
	path := filepath.Join(t.TempDir(), "gpsd.ckpt")
	if err := saveCheckpoint(path, testWorldID(2), localTopology(2), states); err != nil {
		t.Fatal(err)
	}
	for _, want := range []worldID{
		{Seed: 4, Prefixes: 16, Density: 0.03, Shards: 2},  // different universe
		{Seed: 3, Prefixes: 16, Density: 0.03, Shards: 3},  // different shard layout
		{Seed: 3, Prefixes: 32, Density: 0.03, Shards: 2},  // different space
		{Seed: 3, Prefixes: 16, Density: 0.025, Shards: 2}, // different density
	} {
		if _, _, err := loadCheckpoint(path, want); err == nil || errors.Is(err, errNoCheckpoint) {
			t.Errorf("world %+v accepted a checkpoint for %+v", want, testWorldID(2))
		}
	}
}

// A checkpoint in an older format must name both the magic it found and
// the magic this binary expects, so stale-format failures are
// self-diagnosing.
func TestCheckpointStaleMagicHint(t *testing.T) {
	dir := t.TempDir()
	for _, stale := range []string{"GPSD", "GPS2", "GPS3"} {
		path := filepath.Join(dir, stale+".ckpt")
		data := append([]byte(stale), make([]byte, 64)...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := loadCheckpoint(path, testWorldID(1))
		if err == nil {
			t.Fatalf("stale %s checkpoint loaded without error", stale)
		}
		if !strings.Contains(err.Error(), stale) || !strings.Contains(err.Error(), checkpointMagic) {
			t.Errorf("stale-format error %q does not name found magic %q and expected magic %q",
				err, stale, checkpointMagic)
		}
	}

	// Garbage that was never a gpsd checkpoint still names the expected
	// magic.
	path := filepath.Join(dir, "garbage")
	if err := os.WriteFile(path, append([]byte("ELF\x7f"), make([]byte, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := loadCheckpoint(path, testWorldID(1))
	if err == nil || !strings.Contains(err.Error(), checkpointMagic) {
		t.Errorf("garbage-file error %q does not name expected magic %q", err, checkpointMagic)
	}
}

// TestCheckpointTornWrite is the regression test for the fsync-before-
// rename fix: a checkpoint truncated at any point — the state a crash
// mid-write used to leave under the final name — must fail loudly rather
// than resume from partial state.
func TestCheckpointTornWrite(t *testing.T) {
	states := testStates(t, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "gpsd.ckpt")
	world := testWorldID(2)
	if err := saveCheckpoint(path, world, localTopology(2), states); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := len(world.header())
	for _, cut := range []int{0, 2, hdr - 1, hdr + 3, hdr + 9, len(data) / 2, len(data) - 1} {
		torn := filepath.Join(dir, "torn.ckpt")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadCheckpoint(torn, world); err == nil || errors.Is(err, errNoCheckpoint) {
			t.Errorf("checkpoint truncated to %d of %d bytes loaded without error", cut, len(data))
		}
	}
}

// TestCheckpointStaleTmpIgnored models a crash between writing the temp
// file and renaming it: the abandoned temp file must not shadow or
// corrupt the last good checkpoint.
func TestCheckpointStaleTmpIgnored(t *testing.T) {
	states := testStates(t, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "gpsd.ckpt")
	world := testWorldID(1)
	if err := saveCheckpoint(path, world, localTopology(1), states); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp12345", []byte("torn partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := loadCheckpoint(path, world)
	if err != nil {
		t.Fatalf("good checkpoint unreadable next to stale tmp: %v", err)
	}
	if len(got) != 1 || got[0].Epoch != states[0].Epoch {
		t.Error("stale tmp file corrupted the resumed state")
	}
}

// TestAtomicWriteFileFailedWrite: a writer that errors midway must leave
// the previous file byte-identical under the final name and no temp file
// behind — the contract the checkpoint, the per-shard checkpoints and
// the -inventory file all get from atomicWriteFile.
func TestAtomicWriteFileFailedWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gpsd.inv")
	previous := []byte("previous complete file")
	if err := os.WriteFile(path, previous, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := atomicWriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half of the next")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("atomicWriteFile returned %v; want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, previous) {
		t.Errorf("previous file now reads %q, %v; want it untouched", got, err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Errorf("directory holds %v; want only the previous file", names)
	}
}

// TestWriteInventoryFileReplaces: a reader that opened the -inventory
// file before an epoch rewrites it (a concurrent `gpsd serve FILE`) must
// keep reading the complete previous inventory — the new one is a new
// file renamed into place, not a truncate-and-stream of the old one.
func TestWriteInventoryFileReplaces(t *testing.T) {
	states := testStates(t, 1)
	inv, _ := shard.MergeInventories(states)
	path := filepath.Join(t.TempDir(), "gpsd.inv")
	if err := writeInventoryFile(path, inv); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	for k := range inv {
		delete(inv, k)
		break
	}
	if err := writeInventoryFile(path, inv); err != nil {
		t.Fatal(err)
	}
	if seen, err := io.ReadAll(reader); err != nil || !bytes.Equal(seen, first) {
		t.Errorf("open reader saw %d bytes, %v; want the %d bytes of the inventory it opened", len(seen), err, len(first))
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := shard.ReadInventory(bytes.NewReader(second)); err != nil || len(got) != len(inv) {
		t.Errorf("rewritten inventory reads %d entries, %v; want %d", len(got), err, len(inv))
	}
}

// TestRebalanceCheckpointRoundTrip drives the `gpsd rebalance` machinery at
// the file level: split doubles the recorded shard count, join restores
// it, and the final bytes equal the original — the "no rescan" contract.
func TestRebalanceCheckpointRoundTrip(t *testing.T) {
	states := testStates(t, 2)
	path := filepath.Join(t.TempDir(), "gpsd.ckpt")
	world := testWorldID(2)
	topo := topology{Workers: 2, Assign: []int{0, 1}}
	if err := saveCheckpoint(path, world, topo, states); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	f := daemonFlags{checkpoint: path, rebalance: "split"}
	if code := runRebalance(f); code != 0 {
		t.Fatalf("split exited %d", code)
	}
	w2, topo2, split, err := readCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Shards != 4 || len(split) != 4 {
		t.Fatalf("split checkpoint holds %d shards (header %d); want 4", len(split), w2.Shards)
	}
	// Successors inherit the parent's worker.
	if topo2.Assign[0] != 0 || topo2.Assign[1] != 1 || topo2.Assign[2] != 0 || topo2.Assign[3] != 1 {
		t.Errorf("split topology = %+v; successors should keep the parent's worker", topo2)
	}

	f.rebalance = "join"
	if code := runRebalance(f); code != 0 {
		t.Fatalf("join exited %d", code)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("split+join did not round-trip the checkpoint file byte-identically")
	}
}

// TestGoldenCheckpoint holds the GPS4 checkpoint file — world header,
// topology record, GPSS states — to the bytes gpsd wrote before its
// codec moved onto internal/wire, and to a typed truncation error at
// every cut. The states are the ones the GPSS golden decodes to, so the
// fixture is the file next door rather than a second copy of it.
func TestGoldenCheckpoint(t *testing.T) {
	const dir = "../../testdata/golden"
	gpss, err := os.Open(filepath.Join(dir, "GPSS.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer gpss.Close()
	states, err := shard.ReadCheckpoint(gpss)
	if err != nil {
		t.Fatal(err)
	}
	world := worldID{Seed: -77, Prefixes: 16, Density: 0.03, Shards: len(states)}
	topo := topology{Workers: 2, Assign: []int{1, -1, 0}}
	wiretest.Run(t, dir, []wiretest.Case{{
		Name:   "GPS4",
		Encode: func() ([]byte, error) { return encodeCheckpoint(world, topo, states) },
		Decode: func(b []byte) error { _, _, _, err := decodeCheckpoint(b); return err },
	}})
}

// TestResumeRefusesVersion1Checkpoint: gpsd resuming from a GPS4 file
// whose shard states predate GPSC version 3 (testdata/golden/v1 and v2)
// exits non-zero, and the error it logs names the GPSC version it found.
func TestResumeRefusesVersion1Checkpoint(t *testing.T) {
	for i, v := range []string{"v1", "v2"} {
		old, err := os.ReadFile("../../testdata/golden/" + v + "/GPS4.bin")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "gpsd.ckpt")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		// The golden's world header: -seed -77 -prefixes 16 -density 0.03, 3 shards.
		f, err := parseArgs([]string{"-checkpoint", path, "-seed", "-77", "-prefixes", "16",
			"-density", "0.03", "-shards", "3", "-epochs", "1", "-parallelism", "1"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var code int
		_, errw := captureStd(t, func() { code = runDaemon(f) })
		if code == 0 {
			t.Fatalf("resume from a %s checkpoint exited 0", v)
		}
		if want := fmt.Sprintf("found version %d", i+1); !strings.Contains(errw, "GPSC") || !strings.Contains(errw, want) {
			t.Errorf("resume error %q does not name GPSC version %d", errw, i+1)
		}
	}
}
