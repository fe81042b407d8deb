package shard

import (
	"errors"
	"fmt"
	"io"

	"gps/internal/continuous"
	"gps/internal/wire"
)

// Sharded checkpoint format:
//
//	magic "GPSS" | version u8
//	shard count uvarint
//	per shard, in shard order: uvarint byte length + one continuous
//	  checkpoint blob (continuous.WriteCheckpoint output)
//
// Each shard's state reuses the single-runner checkpoint encoding
// unchanged, so a 1-shard sharded checkpoint embeds exactly one regular
// checkpoint and the two formats stay mutually convertible.

const (
	checkpointMagic   = "GPSS"
	checkpointVersion = 1
	// maxShardBlob bounds one shard's state blob, as the transport's
	// maxFrame bounds the frame that carries one.
	maxShardBlob = 1 << 28
	// maxShards bounds the shard count a checkpoint may declare.
	maxShards = 1 << 16
)

// WriteCheckpoint serializes per-shard continuous states in shard order.
func WriteCheckpoint(w io.Writer, states []*continuous.State) error {
	var e wire.Enc
	e.Header(checkpointMagic, checkpointVersion)
	e.Uvarint(uint64(len(states)))
	for i, st := range states {
		blob, err := EncodeState(st)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		e.Blob(blob)
	}
	_, err := w.Write(e)
	return err
}

// ReadCheckpoint parses WriteCheckpoint output. Malformed input is a
// *wire.Error with Format "GPSS", or "GPSC" when the damage is inside a
// shard's embedded state.
func ReadCheckpoint(r io.Reader) ([]*continuous.State, error) {
	d := wire.NewReader(checkpointMagic, r)
	d.Header(checkpointMagic, checkpointVersion)
	n := d.Count(d.Uvarint(), maxShards)
	if n == 0 {
		d.Fail(wire.Implausible, errors.New("no shards"))
	}
	states := make([]*continuous.State, n)
	for i := range states {
		d.At("shard", i)
		blob := d.Blob(maxShardBlob)
		if d.Err() != nil {
			break
		}
		st, err := DecodeState(blob)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		states[i] = st
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return states, nil
}
