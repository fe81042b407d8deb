package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"gps/internal/continuous"
	"gps/internal/shard"
	"gps/internal/wire"
)

// worldID pins a checkpoint to the flags that generated its universe and
// its shard layout. Resuming is only meaningful against the exact same
// deterministic world split the same way: a universe mismatch would
// silently evict the whole inventory against a world it never scanned, and
// a shard-count mismatch would strand hosts in partitions nothing scans.
//
// The same 36 bytes double as the transport's world spec: every msgInit
// that places a shard on a worker carries header(), from which the worker
// rebuilds the identical universe (parseWorldHeader).
type worldID struct {
	Seed     int64
	Prefixes int
	Density  float64
	Shards   int
}

// checkpointMagic versions the daemon's checkpoint preamble. "GPSD" was
// the original single-runner format; "GPS2" added the shard count and the
// multi-state body; "GPS3" added the worker-topology record for
// distributed runs; "GPS4" marks the per-entity sub-seeded universe
// generator — the same seed now realizes a different (partitionable)
// host population, so a GPS3 checkpoint's inventory describes a world a
// GPS4 binary can no longer reproduce.
const checkpointMagic = "GPS4"

// magicHints names the checkpoint formats gpsd has ever written, so a
// stale-format failure is self-diagnosing.
var magicHints = map[string]string{
	"GPSD": "the pre-shard single-runner format",
	"GPS2": "the sharded format without the worker-topology record",
	"GPS3": "the format preceding the sub-seeded universe generator; its world cannot be regenerated by this binary",
}

// header renders the fixed-size checkpoint preamble gpsd writes before
// the topology record and the per-shard states.
func (w worldID) header() []byte {
	var e wire.Enc
	e.Magic(checkpointMagic)
	e.U64(uint64(w.Seed))
	e.U64(uint64(w.Prefixes))
	e.U64(math.Float64bits(w.Density))
	e.U64(uint64(w.Shards))
	return e
}

// decodeWorld reads header() output. Bytes from an older gpsd format
// fail saying which one, on top of the found and expected magic every
// bad-magic error carries.
func decodeWorld(d *wire.Dec) worldID {
	d.At("world header", -1)
	if found := d.Rest(); len(found) >= len(checkpointMagic) {
		if hint, ok := magicHints[string(found[:len(checkpointMagic)])]; ok {
			d.Fail(wire.BadMagic, fmt.Errorf("found %q (%s), want %q; it cannot be resumed — start fresh or keep the old binary",
				found[:len(checkpointMagic)], hint, checkpointMagic))
		}
	}
	d.Magic(checkpointMagic)
	return worldID{
		Seed:     int64(d.U64()),
		Prefixes: int(d.U64()),
		Density:  math.Float64frombits(d.U64()),
		Shards:   int(d.U64()),
	}
}

// parseWorldHeader decodes a standalone header(): the transport's world
// spec.
func parseWorldHeader(hdr []byte) (worldID, error) {
	d := wire.NewDec(checkpointMagic, hdr)
	w := decodeWorld(d)
	return w, d.Done()
}

// topology records which worker owned each shard when the checkpoint was
// written: the worker-fleet size plus one worker index per shard, with -1
// marking a shard not assigned to any worker (an in-process run, or a
// freshly re-balanced layout). Purely advisory on resume — the
// coordinator re-homes shards round-robin over whatever fleet it dials —
// but it makes checkpoints self-describing and survives split/join.
type topology struct {
	Workers int
	Assign  []int
}

// localTopology is the in-process daemon's topology: no workers.
func localTopology(shards int) topology {
	t := topology{Assign: make([]int, shards)}
	for i := range t.Assign {
		t.Assign[i] = -1
	}
	return t
}

const unassigned = ^uint32(0)

// encode renders the topology record; the shard count comes from the
// world header, so only the worker count and assignments are written.
func (t topology) encode() []byte {
	var e wire.Enc
	e.U32(uint32(t.Workers))
	for _, w := range t.Assign {
		if w < 0 {
			e.U32(unassigned)
		} else {
			e.U32(uint32(w))
		}
	}
	return e
}

func decodeTopology(d *wire.Dec, shards int) topology {
	d.At("topology", -1)
	t := topology{Workers: int(d.U32()), Assign: make([]int, shards)}
	for i := range t.Assign {
		if v := d.U32(); v == unassigned {
			t.Assign[i] = -1
		} else {
			t.Assign[i] = int(v)
		}
	}
	return t
}

// errNoCheckpoint distinguishes "no file yet" (fresh start) from a
// corrupt or mismatched checkpoint (fatal).
var errNoCheckpoint = os.ErrNotExist

// maxCheckpointShards bounds the shard count a world header may declare.
const maxCheckpointShards = 1 << 16

// readCheckpointFile reads a checkpoint without validating the world —
// the re-balance subcommand operates on whatever layout the file holds.
// It returns errNoCheckpoint when the file does not exist.
func readCheckpointFile(path string) (worldID, topology, []*continuous.State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			err = errNoCheckpoint
		}
		return worldID{}, topology{}, nil, err
	}
	world, topo, states, err := decodeCheckpoint(data)
	if err != nil {
		err = fmt.Errorf("corrupt checkpoint %s: %w", path, err)
	}
	return world, topo, states, err
}

// encodeCheckpoint renders a whole checkpoint file: the world header,
// the topology record, then the per-shard states as one GPSS blob.
func encodeCheckpoint(world worldID, topo topology, states []*continuous.State) ([]byte, error) {
	buf := bytes.NewBuffer(append(world.header(), topo.encode()...))
	err := shard.WriteCheckpoint(buf, states)
	return buf.Bytes(), err
}

func decodeCheckpoint(data []byte) (worldID, topology, []*continuous.State, error) {
	d := wire.NewDec(checkpointMagic, data)
	world := decodeWorld(d)
	if world.Shards < 1 || world.Shards > maxCheckpointShards {
		d.Fail(wire.Implausible, fmt.Errorf("shard count %d", world.Shards))
	}
	if err := d.Err(); err != nil {
		return world, topology{}, nil, err
	}
	topo := decodeTopology(d, world.Shards)
	if err := d.Err(); err != nil {
		return world, topo, nil, err
	}
	states, err := shard.ReadCheckpoint(bytes.NewReader(d.Rest()))
	if err == nil && len(states) != world.Shards {
		err = fmt.Errorf("%d shard states; header says %d", len(states), world.Shards)
	}
	return world, topo, states, err
}

// loadCheckpoint reads a checkpoint file and returns the per-shard
// states in shard order plus the recorded worker topology. It returns
// errNoCheckpoint when the file does not exist; any other error means the
// checkpoint is corrupt or was written for a different world and must not
// be silently discarded.
func loadCheckpoint(path string, want worldID) ([]*continuous.State, topology, error) {
	got, topo, states, err := readCheckpointFile(path)
	if err != nil {
		return nil, topo, err
	}
	if got != want {
		return nil, topo, fmt.Errorf(
			"checkpoint %s was written for -seed %d -prefixes %d -density %g -shards %d; current flags say -seed %d -prefixes %d -density %g -shards %d",
			path, got.Seed, got.Prefixes, got.Density, got.Shards,
			want.Seed, want.Prefixes, want.Density, want.Shards)
	}
	return states, topo, nil
}

// saveCheckpoint writes the topology and per-shard states in place of
// the previous checkpoint, atomically.
func saveCheckpoint(path string, world worldID, topo topology, states []*continuous.State) error {
	data, err := encodeCheckpoint(world, topo, states)
	if err != nil {
		return err
	}
	return atomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// atomicWriteFile streams write's output to a temp file in path's
// directory, fsyncs it, and renames it into place, so a failed or
// interrupted write — or a concurrent reader — never sees a truncated
// file under the final name: the previous file stays until the new one
// is complete, and the temp file is removed on any failure. The fsync
// before the rename is what makes the sequence crash-safe: without it
// the rename can land while the data blocks are still dirty. The
// directory is also synced (best effort) so the rename itself survives
// a crash. The file gets the mode os.Create would have asked for, not
// CreateTemp's 0600: another user's `gpsd serve FILE` reads inventories.
func atomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(dir); err == nil {
		// Directory sync is best effort: not every filesystem supports
		// it, and the file itself is already durable.
		d.Sync()
		d.Close()
	}
	return nil
}
