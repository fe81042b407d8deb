package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/wire"
)

// TestStateRoundTrip proves EncodeState/DecodeState is lossless at the
// byte level: a state survives a round trip bit-for-bit, which is what
// lets a migrated shard's state stand in for a checkpointed one.
func TestStateRoundTrip(t *testing.T) {
	u, seedSet := testWorld(t, 11)
	cfg := continuous.Config{
		Budget:     4000,
		ShardIndex: 0,
		ShardCount: 2,
	}
	cfg.Pipeline.Workers = 1
	cfg.Pipeline.Seed = 11
	r := continuous.New(seedSet, cfg)
	for e := 0; e < 2; e++ {
		if _, err := r.Epoch(u); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}

	blob, err := EncodeState(r.State())
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	st, err := DecodeState(blob)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if st.Epoch != r.State().Epoch {
		t.Fatalf("round-tripped epoch %d, want %d", st.Epoch, r.State().Epoch)
	}
	if len(st.Known) != len(r.State().Known) {
		t.Fatalf("round-tripped %d known services, want %d", len(st.Known), len(r.State().Known))
	}
	again, err := EncodeState(st)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatal("EncodeState is not byte-stable across a round trip")
	}

	if _, err := DecodeState([]byte("not a checkpoint")); err == nil {
		t.Fatal("DecodeState accepted garbage")
	}
}

// runnerSteps returns the (base, next) pair of each epoch of a runner over
// a churning world: re-verifications, stale marks, evictions and new
// services, all as the runner makes them. A last pair refreshes one
// service with changed features, which the test world's churn never does.
func runnerSteps(tb testing.TB) [][2]*continuous.State {
	tb.Helper()
	u, seedSet := testWorld(tb, 11)
	cfg := continuous.Config{Budget: 3000, ShardIndex: 0, ShardCount: 2}
	cfg.Pipeline.Workers = 1
	cfg.Pipeline.Seed = 11
	r := continuous.New(seedSet, cfg)
	var pairs [][2]*continuous.State
	for e := 1; e <= 4; e++ {
		u = netmodel.Churn(u, netmodel.DefaultChurn(300+int64(e)))
		base := r.State()
		if _, err := r.Epoch(u); err != nil {
			tb.Fatalf("epoch %d: %v", e, err)
		}
		pairs = append(pairs, [2]*continuous.State{base, r.State()})
	}
	base := r.State()
	next := &continuous.State{Epoch: base.Epoch + 1, Known: slices.Clone(base.Known)}
	ent := &next.Known[len(next.Known)/2]
	ent.Rec.Feats = features.NewSet(append(slices.Clone(ent.Rec.Feats), features.Value{Key: features.Key(features.NumKeys), Val: "refreshed"})...)
	ent.LastSeen, ent.Stale = next.Epoch, 0
	return append(pairs, [2]*continuous.State{base, next})
}

// TestStepRoundTrip: ApplyStep(b, EncodeStep(b, n)) is n byte for byte
// under EncodeState, for every step a runner takes and for unrelated
// pairs of runs (any later state over any base), and a runner's step is a
// small fraction of the state it ends at.
func TestStepRoundTrip(t *testing.T) {
	pairs := runnerSteps(t)
	empty := &continuous.State{}
	check := func(name string, base, next *continuous.State) []byte {
		t.Helper()
		step := EncodeStep(base, next)
		got, err := ApplyStep(base, step)
		if err != nil {
			t.Fatalf("%s: ApplyStep: %v", name, err)
		}
		if !bytes.Equal(stateBytes(t, got), stateBytes(t, next)) {
			t.Fatalf("%s: the applied step differs from the state it encodes", name)
		}
		return step
	}
	for i, p := range pairs {
		step := check(fmt.Sprintf("runner step %d", i), p[0], p[1])
		if i > 0 && len(step)*8 > len(stateBytes(t, p[1])) {
			t.Errorf("runner step %d is %d bytes, over an eighth of its %d-byte state", i, len(step), len(stateBytes(t, p[1])))
		}
	}
	for i, p := range pairs {
		for j, q := range pairs {
			if q[1].Epoch > p[0].Epoch {
				check(fmt.Sprintf("base %d to state %d", i, j), p[0], q[1])
			}
		}
		check(fmt.Sprintf("empty to state %d", i), empty, p[1])
		check(fmt.Sprintf("base %d to empty", i), p[0], &continuous.State{Epoch: p[0].Epoch + 1})
	}
}

// rawStep lays out a step field by field, as EncodeStep does, so a test
// can write one EncodeStep never would.
func rawStep(baseEpoch, baseCount, epoch uint64, ops []byte, puts []continuous.Entry) []byte {
	var e wire.Enc
	e.Uvarint(baseEpoch)
	e.Uvarint(baseCount)
	e.Uvarint(epoch)
	e.Blob(ops)
	continuous.AppendKnown(&e, puts)
	return e
}

// TestApplyStepRefusals: one case per refusal ApplyStep documents, each
// an error of the kind, in the section, that its check makes, so each
// case fails if its check goes.
func TestApplyStepRefusals(t *testing.T) {
	entry := func(ip uint32, port uint16, first, last, stale int) continuous.Entry {
		return continuous.Entry{
			Rec:       dataset.Record{IP: asndb.IP(ip), Port: port, Proto: 1, ASN: 64500, TTL: 60, Feats: features.NewSet(features.Value{Key: 3, Val: "x"})},
			FirstSeen: first, LastSeen: last, Stale: stale,
		}
	}
	base := &continuous.State{Epoch: 4, Known: []continuous.Entry{entry(1, 22, 0, 4, 0), entry(2, 80, 1, 3, 1)}}
	kept := []byte{opKept, opKept}
	newPut := []continuous.Entry{entry(3, 443, 5, 5, 0)}
	valid := rawStep(4, 2, 5, kept, newPut)
	if _, err := ApplyStep(base, valid); err != nil {
		t.Fatalf("the cases' valid step: %v", err)
	}
	// A put section whose string table holds a string no set uses.
	noPuts := rawStep(4, 2, 5, kept, nil)
	badTable := wire.Enc(slices.Clone(noPuts[:len(noPuts)-2]))
	badTable.Uvarint(2)
	badTable.Str("x")
	badTable.Str("unused")
	badTable.Uvarint(1)
	continuous.EncodeServed(&badTable, newPut[0].Rec.Key(), &newPut[0])
	badTable.U8(1)
	badTable.U8(3)
	badTable.Uvarint(0)
	staleOps := append(binary.AppendUvarint([]byte{opFields, 5}, 1<<63), opKept)
	for _, tc := range []struct {
		name    string
		step    []byte
		kind    wire.Kind
		section string
	}{
		{"another base epoch", rawStep(3, 2, 5, kept, nil), wire.Implausible, "header"},
		{"another base count", rawStep(4, 1, 5, kept[:1], nil), wire.Implausible, "header"},
		{"next epoch at the base's", rawStep(4, 2, 4, kept, nil), wire.Implausible, "header"},
		{"next epoch before the base's", rawStep(4, 2, 3, kept, nil), wire.Implausible, "header"},
		{"next epoch past the limit", rawStep(4, 2, 1<<24+1, kept, nil), wire.Implausible, "header"},
		{"too few ops", rawStep(4, 2, 5, kept[:1], nil), wire.Truncated, "op"},
		{"too many ops", rawStep(4, 2, 5, []byte{opKept, opKept, opKept}, nil), wire.Implausible, "op"},
		{"unknown op", rawStep(4, 2, 5, []byte{opKept, opDropped + 1}, nil), wire.Implausible, "op"},
		{"trailing bytes", append(slices.Clip(valid), 0), wire.Trailing, ""},
		{"put out of order", rawStep(4, 2, 5, kept, []continuous.Entry{entry(4, 80, 5, 5, 0), entry(3, 443, 5, 5, 0)}), wire.Implausible, "entry"},
		{"put on a kept key", rawStep(4, 2, 5, kept, []continuous.Entry{entry(2, 80, 5, 5, 0)}), wire.Implausible, "op"},
		{"put first seen after last seen", rawStep(4, 2, 5, kept, []continuous.Entry{entry(3, 443, 5, 4, 0)}), wire.Implausible, "entry"},
		{"put last seen past the epoch", rawStep(4, 2, 5, kept, []continuous.Entry{entry(3, 443, 5, 6, 0)}), wire.Implausible, "entry"},
		{"fields last seen past the epoch", rawStep(4, 2, 5, []byte{opFields, 6, 0, opKept}, nil), wire.Implausible, "op"},
		{"fields stale past the int range", rawStep(4, 2, 5, staleOps, nil), wire.Implausible, "op"},
		{"put proto out of range", withServed(t, valid, newPut[0].Rec.Key(), &newPut[0], uint64(features.NumProtocols)+1, 64500, 60), wire.Implausible, "entry"},
		{"put string table numbered wrong", badTable, wire.Implausible, "entry"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := ApplyStep(base, tc.step)
			var werr *wire.Error
			if !errors.As(err, &werr) || werr.Format != stepFormat || werr.Kind != tc.kind || werr.Section != tc.section {
				t.Fatalf("ApplyStep = (%v, %v); want a %q %s error in section %q", st, err, stepFormat, tc.kind, tc.section)
			}
		})
	}
}
