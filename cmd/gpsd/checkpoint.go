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

// worldID pins a checkpoint to the flags that generated its universe.
// Resuming is only meaningful against the exact same deterministic world:
// a universe mismatch would silently evict the whole inventory against a
// world it never scanned. The shard count is not part of it: the
// checkpoint holds one merged run, which a resume partitions for whatever
// -shards it is given (shard.Partition).
//
// The same 28 bytes double as the transport's world spec: every msgInit
// that places a shard on a worker carries header() inside the GPSP
// envelope, which carries the shard count, and the worker rebuilds the
// identical universe from it (parseWorldHeader).
type worldID struct {
	Seed     int64
	Prefixes int
	Density  float64
}

// checkpointMagic versions the daemon's checkpoint file:
//
//	world header: magic "GPS5" | seed, prefixes, density bits (u64 each)
//	worker count uvarint
//	one GPSC state: the merged key-sorted run of every shard
//
// The checkpoint ends at the GPSC state; it is the rest of the file.
const checkpointMagic = "GPS5"

// magicHints names the checkpoint formats gpsd has ever written, so a
// stale-format failure is self-diagnosing.
var magicHints = map[string]string{
	"GPSD": "the pre-shard single-runner format",
	"GPS2": "the sharded format without the worker-topology record",
	"GPS3": "the format preceding the sub-seeded universe generator; its world cannot be regenerated by this binary",
	"GPS4": "the per-shard format, one state per shard under a fixed shard count",
}

// header renders the fixed-size world header gpsd writes first.
func (w worldID) header() []byte {
	var e wire.Enc
	e.Magic(checkpointMagic)
	e.U64(uint64(w.Seed))
	e.U64(uint64(w.Prefixes))
	e.U64(math.Float64bits(w.Density))
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
	}
}

// parseWorldHeader decodes a standalone header(): the transport's world
// spec.
func parseWorldHeader(hdr []byte) (worldID, error) {
	d := wire.NewDec(checkpointMagic, hdr)
	w := decodeWorld(d)
	return w, d.Done()
}

// errNoCheckpoint distinguishes "no file yet" (fresh start) from a
// corrupt or mismatched checkpoint (fatal).
var errNoCheckpoint = os.ErrNotExist

// maxWorkers bounds the worker count a checkpoint may record.
const maxWorkers = 1 << 16

// encodeCheckpoint renders a whole checkpoint file. workers is the fleet
// that wrote it, 0 in process: resume reports it and reads nothing else
// from it.
func encodeCheckpoint(world worldID, workers int, run *continuous.State) ([]byte, error) {
	e := wire.Enc(world.header())
	e.Uvarint(uint64(workers))
	buf := bytes.NewBuffer(e)
	err := continuous.WriteCheckpoint(buf, run)
	return buf.Bytes(), err
}

// decodeCheckpoint reads encodeCheckpoint output. Malformed input is a
// *wire.Error naming GPS5, or GPSC when the damage is inside the run.
func decodeCheckpoint(data []byte) (worldID, int, *continuous.State, error) {
	d := wire.NewDec(checkpointMagic, data)
	world := decodeWorld(d)
	d.At("worker count", -1)
	workers := d.Count(d.Uvarint(), maxWorkers)
	if err := d.Err(); err != nil {
		return world, 0, nil, err
	}
	run, err := continuous.ReadCheckpoint(bytes.NewReader(d.Rest()))
	return world, workers, run, err
}

// loadCheckpoint reads a checkpoint file and returns the merged run plus
// the worker count that wrote it. It returns errNoCheckpoint when the
// file does not exist; any other error means the checkpoint is corrupt or
// was written for a different world and must not be silently discarded.
func loadCheckpoint(path string, want worldID) (*continuous.State, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			err = errNoCheckpoint
		}
		return nil, 0, err
	}
	got, workers, run, err := decodeCheckpoint(data)
	if err != nil {
		return nil, 0, fmt.Errorf("corrupt checkpoint %s: %w", path, err)
	}
	if got != want {
		return nil, 0, fmt.Errorf(
			"checkpoint %s was written for -seed %d -prefixes %d -density %g; current flags say -seed %d -prefixes %d -density %g",
			path, got.Seed, got.Prefixes, got.Density, want.Seed, want.Prefixes, want.Density)
	}
	return run, workers, nil
}

// saveCheckpoint merges the per-shard states into one run and writes it
// in place of the previous checkpoint, atomically. workers is the live
// fleet (Coordinator.WorkerAddrs, which grows with every admitted -join,
// not the -workers list); an in-process coordinator has none.
func saveCheckpoint(path string, world worldID, workers int, states []*continuous.State) error {
	run, err := shard.Merge(states)
	if err != nil {
		return err
	}
	data, err := encodeCheckpoint(world, workers, run)
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
