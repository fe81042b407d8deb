package main

import (
	"bytes"
	"encoding/binary"
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

func testWorldID() worldID {
	return worldID{Seed: 3, Prefixes: 16, Density: 0.03}
}

func TestCheckpointRoundtrip(t *testing.T) {
	states := testStates(t, 2)
	path := filepath.Join(t.TempDir(), "gpsd.ckpt")
	world := testWorldID()
	if err := saveCheckpoint(path, world, 3, states); err != nil {
		t.Fatal(err)
	}
	run, workers, err := loadCheckpoint(path, world)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range shard.Partition(run, len(states)) {
		if got.Epoch != states[i].Epoch || len(got.Known) != len(states[i].Known) {
			t.Errorf("shard %d: epoch %d/%d known %d/%d",
				i, got.Epoch, states[i].Epoch, len(got.Known), len(states[i].Known))
		}
	}
	if workers != 3 {
		t.Errorf("worker count read back as %d; want 3", workers)
	}
	// No leftover temp files after a successful save.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir holds %d files; want 1", len(entries))
	}

	// Shards at different epochs are not one commit: the save is
	// refused and the previous checkpoint stays.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	skewed := []*continuous.State{states[0], {Epoch: states[1].Epoch + 1, Known: states[1].Known}}
	if err := saveCheckpoint(path, world, 3, skewed); err == nil || !strings.Contains(err.Error(), "epochs differ") {
		t.Errorf("saving shards at different epochs returned %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("refused save changed the checkpoint (%v)", err)
	}
}

// An in-process checkpoint records no workers, and its exit line names
// no fleet.
func TestCheckpointLocalTopology(t *testing.T) {
	states := testStates(t, 2)
	path := filepath.Join(t.TempDir(), "gpsd.ckpt")
	world := testWorldID()
	coord, err := shard.ResumeCoordinator(states, shard.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := exitSuffix(coord); got != "" {
		t.Errorf("in-process exit suffix %q; want none", got)
	}
	if err := saveCheckpoint(path, world, len(coord.WorkerAddrs()), states); err != nil {
		t.Fatal(err)
	}
	if _, workers, err := loadCheckpoint(path, world); err != nil || workers != 0 {
		t.Errorf("local checkpoint read back %d workers, %v; want 0", workers, err)
	}
}

func TestCheckpointMissingIsFreshStart(t *testing.T) {
	_, _, err := loadCheckpoint(filepath.Join(t.TempDir(), "absent"), testWorldID())
	if !errors.Is(err, errNoCheckpoint) {
		t.Errorf("missing checkpoint returned %v; want errNoCheckpoint", err)
	}
}

// TestCheckpointWorldMismatch: a checkpoint resumes only against the
// universe it was written for. The shard layout is not part of that: a
// 2-shard checkpoint loads as one run that a 3-shard resume partitions.
func TestCheckpointWorldMismatch(t *testing.T) {
	states := testStates(t, 2)
	path := filepath.Join(t.TempDir(), "gpsd.ckpt")
	if err := saveCheckpoint(path, testWorldID(), 0, states); err != nil {
		t.Fatal(err)
	}
	for _, want := range []worldID{
		{Seed: 4, Prefixes: 16, Density: 0.03},  // different universe
		{Seed: 3, Prefixes: 32, Density: 0.03},  // different space
		{Seed: 3, Prefixes: 16, Density: 0.025}, // different density
	} {
		if _, _, err := loadCheckpoint(path, want); err == nil || errors.Is(err, errNoCheckpoint) {
			t.Errorf("world %+v accepted a checkpoint for %+v", want, testWorldID())
		}
	}

	run, _, err := loadCheckpoint(path, testWorldID())
	if err != nil {
		t.Fatalf("a different shard layout refused the checkpoint: %v", err)
	}
	known := 0
	for _, part := range shard.Partition(run, 3) {
		known += len(part.Known)
	}
	if want := len(states[0].Known) + len(states[1].Known); known != want {
		t.Errorf("3-shard layout holds %d services; the 2-shard one held %d", known, want)
	}
}

// A checkpoint in an older format must name both the magic it found and
// the magic this binary expects, so stale-format failures are
// self-diagnosing.
func TestCheckpointStaleMagicHint(t *testing.T) {
	dir := t.TempDir()
	for _, stale := range []string{"GPSD", "GPS2", "GPS3", "GPS4"} {
		path := filepath.Join(dir, stale+".ckpt")
		data := append([]byte(stale), make([]byte, 64)...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := loadCheckpoint(path, testWorldID())
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
	_, _, err := loadCheckpoint(path, testWorldID())
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
	world := testWorldID()
	if err := saveCheckpoint(path, world, 0, states); err != nil {
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
	world := testWorldID()
	if err := saveCheckpoint(path, world, 0, states); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp12345", []byte("torn partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := loadCheckpoint(path, world)
	if err != nil {
		t.Fatalf("good checkpoint unreadable next to stale tmp: %v", err)
	}
	if got.Epoch != states[0].Epoch || len(got.Known) != len(states[0].Known) {
		t.Error("stale tmp file corrupted the resumed state")
	}
}

// TestAtomicWriteFileFailedWrite: a writer that errors midway must leave
// the previous file byte-identical under the final name and no temp file
// behind — the contract the checkpoint and the -inventory file both get
// from atomicWriteFile.
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
	inv := shard.MergeInventories(states)
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

// TestCheckpointReshard: the checkpoint is one merged run, so a 4-shard
// checkpoint resumed at 1, 2, 3 and 8 shards rewrites byte-identical
// checkpoint and -inventory files, and the 3-shard layout keeps running.
// Only the resume boundary is byte-identical: each shard trains its own
// model on its own budget slice, so later epochs depend on the count.
func TestCheckpointReshard(t *testing.T) {
	dir := t.TempDir()
	daemon := func(shards, epochs int, name string) (ckpt, inv []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := parseArgs([]string{"-seed", "5", "-prefixes", "2", "-density", "0.02",
			"-seed-fraction", "0.05", "-parallelism", "1",
			"-shards", fmt.Sprint(shards), "-epochs", fmt.Sprint(epochs),
			"-checkpoint", path + ".ckpt", "-inventory", path + ".inv"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var code int
		_, errw := captureStd(t, func() { code = runDaemon(f) })
		if code != 0 {
			t.Fatalf("-shards %d -epochs %d exited %d: %s", shards, epochs, code, errw)
		}
		if ckpt, err = os.ReadFile(path + ".ckpt"); err != nil {
			t.Fatal(err)
		}
		if inv, err = os.ReadFile(path + ".inv"); err != nil {
			t.Fatal(err)
		}
		return ckpt, inv
	}

	wantCkpt, wantInv := daemon(4, 2, "four")
	if inv, err := shard.ReadInventory(bytes.NewReader(wantInv)); err != nil || len(inv) == 0 {
		t.Fatalf("4-shard inventory holds %d services, %v; want some", len(inv), err)
	}
	for _, n := range []int{1, 2, 3, 8} {
		name := fmt.Sprintf("resumed-%d", n)
		if err := os.WriteFile(filepath.Join(dir, name+".ckpt"), wantCkpt, 0o644); err != nil {
			t.Fatal(err)
		}
		ckpt, inv := daemon(n, 2, name)
		if !bytes.Equal(ckpt, wantCkpt) {
			t.Errorf("resumed at %d shards: checkpoint differs from the 4-shard one", n)
		}
		if !bytes.Equal(inv, wantInv) {
			t.Errorf("resumed at %d shards: inventory differs from the 4-shard one", n)
		}
	}

	ckpt, _ := daemon(3, 3, "resumed-3")
	if _, _, run, err := decodeCheckpoint(ckpt); err != nil || run.Epoch != 3 {
		t.Errorf("3-shard continuation checkpoint: %v; want epoch 3", err)
	}
}

// TestGoldenCheckpoint holds the GPS5 checkpoint file — world header,
// worker count, one GPSC run — to its golden bytes, and to a typed
// truncation error at every cut. The run is the one the GPSC golden
// decodes to, so the fixture is the file next door rather than a second
// copy of it.
func TestGoldenCheckpoint(t *testing.T) {
	const dir = "../../testdata/golden"
	gpsc, err := os.ReadFile(filepath.Join(dir, "GPSC.bin"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := continuous.ReadCheckpoint(bytes.NewReader(gpsc))
	if err != nil {
		t.Fatal(err)
	}
	world := worldID{Seed: -77, Prefixes: 16, Density: 0.03}
	wiretest.Run(t, dir, []wiretest.Case{{
		Name:   "GPS5",
		Encode: func() ([]byte, error) { return encodeCheckpoint(world, 2, run) },
		Decode: func(b []byte) error { _, _, _, err := decodeCheckpoint(b); return err },
	}})
}

// TestResumeRefusesGPS4Checkpoint: gpsd resuming from the last GPS4 file
// (testdata/golden/v3), which framed one GPSC per shard, exits non-zero,
// and the error it logs names the magic it found and the one it wants.
func TestResumeRefusesGPS4Checkpoint(t *testing.T) {
	old, err := os.ReadFile("../../testdata/golden/v3/GPS4.bin")
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
		t.Fatal("resume from a GPS4 checkpoint exited 0")
	}
	if !strings.Contains(errw, "GPS4") || !strings.Contains(errw, checkpointMagic) {
		t.Errorf("resume error %q does not name GPS4 and %s", errw, checkpointMagic)
	}
}

// checkpointFile is one decoded GPS5 file, for the fuzz body.
type checkpointFile struct {
	world   worldID
	workers int
	run     *continuous.State
}

func readCheckpointFile(r io.Reader) (checkpointFile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return checkpointFile{}, err
	}
	var c checkpointFile
	c.world, c.workers, c.run, err = decodeCheckpoint(data)
	return c, err
}

func writeCheckpointFile(w io.Writer, c checkpointFile) error {
	data, err := encodeCheckpoint(c.world, c.workers, c.run)
	if err == nil {
		_, err = w.Write(data)
	}
	return err
}

// FuzzDecodeCheckpoint drives arbitrary bytes through the GPS5 reader and
// the GPSC reader behind its header. No input may panic; every refusal is
// a *wire.Error naming the format that broke; and an accepted file is
// canonical after one write.
func FuzzDecodeCheckpoint(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden/GPS5.bin")
	if err != nil {
		f.Fatal(err)
	}
	old, err := os.ReadFile("../../testdata/golden/v3/GPS4.bin")
	if err != nil {
		f.Fatal(err)
	}
	hdr := len(testWorldID().header()) + 1 // world header and a 1-byte worker count
	f.Add(golden)
	f.Add(golden[:(hdr+len(golden))/2]) // cut inside the GPSC blob
	f.Add(old)
	huge := binary.AppendUvarint(testWorldID().header(), 1<<40)
	f.Add(append(huge, golden[hdr:]...))          // a worker count past the limit
	f.Add(append(append([]byte{}, golden...), 0)) // trailing byte
	// A run whose entry was first seen after it was last seen, and one
	// whose stale count overflows an int.
	for _, e := range []continuous.Entry{{FirstSeen: 2, LastSeen: 1}, {Stale: -1}} {
		bad, err := encodeCheckpoint(testWorldID(), 0, &continuous.State{Epoch: 2, Known: []continuous.Entry{e}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.FuzzCanonical(t, data, "GPS5 GPSC", readCheckpointFile, writeCheckpointFile)
	})
}
