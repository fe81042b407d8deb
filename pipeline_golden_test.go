package gps

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gps/internal/features"
	"gps/internal/probmodel"
)

// updatePipelineGolden rewrites testdata/golden/pipeline/index.tsv from
// the code under test. The checked-in file was written by the commit
// BEFORE the model went integer-keyed (string-keyed probmodel.Cond maps),
// so replaying it proves the interned tables count exactly what the maps
// counted. Regenerate only from a commit whose outputs are the reference.
var updatePipelineGolden = flag.Bool("update-pipeline-golden", false,
	"rewrite testdata/golden/pipeline/index.tsv from this tree's gps.Run")

// updateAnchorsGolden rewrites testdata/golden/pipeline/anchors.tsv. The
// checked-in file was written by the commit before the priors scan read
// the universe's port-major responder index, when ResponsiveIn still
// looked up every host of each scanned prefix.
var updateAnchorsGolden = flag.Bool("update-anchors-golden", false,
	"rewrite testdata/golden/pipeline/anchors.tsv from this tree's gps.Run")

const (
	pipelineGoldenPath = "testdata/golden/pipeline/index.tsv"
	anchorsGoldenPath  = "testdata/golden/pipeline/anchors.tsv"
)

// pipelineGoldenWorlds are the seeds of the small universes replayed.
var pipelineGoldenWorlds = []int64{100, 101, 102}

type pipelineGoldenConfig struct {
	name string
	cfg  Config
}

// pipelineGoldenConfigs covers every model-side switch gps.Run has:
// worker counts, step size, budget, family sets, floor and support
// ablations, an application-key restriction and a sharded run.
func pipelineGoldenConfigs(f *fixture) []pipelineGoldenConfig {
	return []pipelineGoldenConfig{
		{"workers1", Config{Seed: 11, Workers: 1}},
		{"workers2", Config{Seed: 11, Workers: 2}},
		{"workers3", Config{Seed: 11, Workers: 3}},
		{"step20-budget", Config{Seed: 12, StepBits: 20, Budget: f.u.SpaceSize() / 2}},
		{"stepzero-transport", Config{Seed: 13, StepZero: true, Families: probmodel.FamilySet(0).With(probmodel.FamilyT)}},
		{"nofloor-nosupport", Config{Seed: 14, Floor: -1, MinSupport: -1}},
		{"appkeys", Config{Seed: 15, AppKeys: []features.Key{features.KeyProtocol, features.KeyHTTPServer, features.KeySSHBanner}}},
		{"shard1of4-exact", Config{Seed: 16, ShardIndex: 1, ShardCount: 4}},
		{"tn-tan", Config{Seed: 17, Families: probmodel.FamilySet(0).With(probmodel.FamilyTN).With(probmodel.FamilyTAN)}},
	}
}

// pipelineDigest is one golden row: the sizes in clear (so a mismatch
// says which list moved) and a sha256 per list over a fixed-width
// big-endian serialization, probabilities as their IEEE-754 bits.
func pipelineDigest(res *Result) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.BigEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	sum := func() string {
		s := hex.EncodeToString(h.Sum(nil))
		h.Reset()
		return s
	}
	for _, t := range res.PriorsList.Targets {
		put(uint64(t.Port), uint64(t.Subnet.Addr), uint64(t.Subnet.Bits), uint64(t.Coverage))
	}
	targets := sum()
	for _, p := range res.Predictions {
		put(uint64(p.IP), uint64(p.Port), math.Float64bits(p.P))
	}
	preds := sum()
	for _, d := range res.Discoveries {
		put(uint64(d.Key.IP), uint64(d.Key.Port), uint64(d.Phase), d.Probes, math.Float64bits(d.P))
	}
	discs := sum()
	recs, pairs := res.Model.Stats()
	return fmt.Sprintf("targets=%d predictions=%d discoveries=%d conds=%d pairs=%d records_in=%d pairs_emitted=%d priors_probes=%d predict_probes=%d\t%s\t%s\t%s",
		len(res.PriorsList.Targets), len(res.Predictions), len(res.Discoveries),
		res.Model.NumConds(), res.Model.NumPairs(), recs, pairs,
		res.PriorsProbes, res.PredictProbes, targets, preds, discs)
}

// anchorsDigest is one anchors golden row: what pipelineDigest leaves
// out. It counts the middleboxes LZR discarded, the found set and the
// anchors, and hashes every anchor's IP, port, protocol, ASN and TTL
// together with its feature set in ascending key order.
func anchorsDigest(res *Result) string {
	h := sha256.New()
	var b [8]byte
	for _, a := range res.Anchors {
		for _, v := range []uint64{uint64(a.IP), uint64(a.Port), uint64(a.Proto), uint64(a.ASN), uint64(a.TTL), uint64(len(a.Feats))} {
			binary.BigEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for _, v := range a.Feats {
			fmt.Fprintf(h, "%d=%q;", v.Key, v.Val)
		}
	}
	return fmt.Sprintf("middleboxes=%d found=%d anchors=%d\t%s",
		res.Middleboxes, len(res.Found), len(res.Anchors), hex.EncodeToString(h.Sum(nil)))
}

// TestPipelineGolden replays gps.Run over three seeded worlds and nine
// configurations against rows written by the string-keyed model: the
// priors targets, the predictions (float bits included), the discovery
// log with its probe counters, and the model's NumConds, NumPairs and
// Stats must all be bit-identical. The same runs' anchors, middlebox
// count and found-set size must match anchors.tsv.
func TestPipelineGolden(t *testing.T) {
	var lines, anchors []string
	for _, world := range pipelineGoldenWorlds {
		f := newFixture(t, world)
		for _, c := range pipelineGoldenConfigs(f) {
			res, err := Run(f.u, f.seedSet, c.cfg)
			if err != nil {
				t.Fatalf("world %d %s: %v", world, c.name, err)
			}
			lines = append(lines, fmt.Sprintf("%d\t%s\t%s", world, c.name, pipelineDigest(res)))
			anchors = append(anchors, fmt.Sprintf("%d\t%s\t%s", world, c.name, anchorsDigest(res)))
		}
	}
	checkGoldenRows(t, pipelineGoldenPath, *updatePipelineGolden, lines)
	checkGoldenRows(t, anchorsGoldenPath, *updateAnchorsGolden, anchors)
}

// checkGoldenRows compares rows against the golden file at path line by
// line, or rewrites the file from them when update is set.
func checkGoldenRows(t *testing.T, path string, update bool, lines []string) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var want []string
	for sc := bufio.NewScanner(file); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d rows; this tree produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("row %d differs\n got: %s\nwant: %s", i, lines[i], want[i])
		}
	}
}
