package shard

import (
	"bytes"
	"fmt"

	"gps/internal/continuous"
)

// Per-shard state extraction: EncodeState produces one shard's state as
// a standalone blob (exactly one continuous checkpoint), DecodeState
// parses it back. The transport's placement RPC (msgInit — seeding,
// resume, failover and migration alike) and epoch results all ship this
// blob, and gpsd's checkpoint holds one over the merged run (Merge), so a
// migrated shard's state is byte-compatible with a checkpointed one (and
// a new GPSC version is a new transport.Version).

// EncodeState serializes one shard's continuous state as a standalone
// blob — the unit of live migration.
func EncodeState(st *continuous.State) ([]byte, error) {
	var buf bytes.Buffer
	if err := continuous.WriteCheckpoint(&buf, st); err != nil {
		return nil, fmt.Errorf("shard: encoding state: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeState parses EncodeState output.
func DecodeState(blob []byte) (*continuous.State, error) {
	st, err := continuous.ReadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("shard: decoding state: %w", err)
	}
	return st, nil
}
