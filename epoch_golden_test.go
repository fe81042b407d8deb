package gps

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"testing"

	"gps/internal/continuous"
	"gps/internal/features"
	"gps/internal/netmodel"
	"gps/internal/pipeline"
	"gps/internal/shard"
	"gps/internal/store"
	"gps/internal/wire"
)

// updateEpochGolden rewrites testdata/golden/epochs/index.tsv from the
// code under test. The checked-in file was written by the commit BEFORE
// zgrab.Grab and lzr.Fingerprint stopped rendering and re-parsing
// protocol bytes, so replaying it proves an epoch records exactly what
// the byte codecs recorded. Regenerate only from a commit whose outputs
// are the reference.
var updateEpochGolden = flag.Bool("update-epoch-golden", false,
	"rewrite testdata/golden/epochs/index.tsv from this tree's continuous epochs")

const epochGoldenPath = "testdata/golden/epochs/index.tsv"

// epochGoldenWorlds are the netmodel.TestParams seeds replayed, each
// unsharded and 4-way sharded.
var epochGoldenWorlds = []int64{100, 101}

const epochGoldenEpochs = 3

func sha256Of(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// knownSetDigest writes what a shard knows independent of any checkpoint
// layout: its known records in (IP, port) order as the retired GPSD
// dataset format wrote them, which the golden's digests were taken over
// (header and name, zero metadata, no port list, then the interned
// records), then each entry's FirstSeen, LastSeen and Stale as uvarints
// in that order.
func knownSetDigest(known []continuous.Entry) func(io.Writer) error {
	return func(w io.Writer) error {
		var e, counters wire.Enc
		e.Header("GPSD", 1)
		e.Str("continuous-checkpoint")
		e.Uvarint(0) // space size
		e.Uvarint(0) // collection probes
		e.U64(0)     // sample fraction
		e.Uvarint(0) // ports
		store.AppendInterned(&e, len(known), func(w *wire.Enc, i int) features.Set {
			r := &known[i].Rec
			w.U32(uint32(r.IP))
			w.U16(r.Port)
			w.U8(uint8(r.Proto))
			w.Uvarint(uint64(r.ASN))
			w.U8(r.TTL)
			return r.Feats
		})
		for _, k := range known {
			counters.Uvarint(uint64(k.FirstSeen))
			counters.Uvarint(uint64(k.LastSeen))
			counters.Uvarint(uint64(k.Stale))
		}
		_, err := w.Write(append(e, counters...))
		return err
	}
}

// epochDigest is one golden row: the sizes in clear, the sha256 of the
// merged GPSV inventory, the epoch's remaining counters in clear, then
// the sha256 of every shard's known set, which embeds each known record's
// full feature set.
func epochDigest(t *testing.T, c *shard.Coordinator, stats continuous.EpochStats) string {
	t.Helper()
	inv, _ := c.Inventory()
	row := fmt.Sprintf("known=%d verified=%d lost=%d evicted=%d new=%d refreshed=%d probes=%d\t%s",
		len(inv), stats.Verified, stats.Lost, stats.Evicted, stats.NewFound, stats.Refreshed, stats.Probes(),
		sha256Of(t, func(w io.Writer) error { return shard.WriteInventory(w, inv) }))
	f := stats.Freshness
	row += fmt.Sprintf("\ttrain=%d known_size=%d fresh_known=%d fresh=%d stale=%d checked=%d alive=%d",
		stats.TrainSize, stats.KnownSize, f.Known, f.Fresh, f.Stale, f.Checked, f.Alive)
	for _, st := range c.States() {
		row += "\t" + sha256Of(t, knownSetDigest(st.Known))
	}
	return row
}

// TestEpochGolden replays seed + three churned continuous epochs
// (reverify, retrain, discover, fold) over two worlds, unsharded and
// 4-way sharded, against rows written by the parent of the commit that
// made a grab a read: every shard's known set, every counter and the
// merged inventory must be byte-identical after every epoch.
func TestEpochGolden(t *testing.T) {
	var lines []string
	for _, world := range epochGoldenWorlds {
		base := netmodel.Generate(netmodel.TestParams(world))
		seedSet := CollectSeed(base, 0.05, world+1)
		for _, shards := range []int{1, 4} {
			c := shard.NewCoordinator(seedSet, shard.Config{
				Shards: shards,
				Continuous: continuous.Config{
					Budget:   20 * base.SpaceSize(),
					Pipeline: pipeline.Config{Workers: 1, Seed: 7},
				},
			})
			lines = append(lines, fmt.Sprintf("%d\t%d\t0\t%s", world, shards, epochDigest(t, c, continuous.EpochStats{})))
			u := base
			for e := 1; e <= epochGoldenEpochs; e++ {
				u = netmodel.Churn(u, netmodel.DefaultChurn(world+int64(e)))
				stats, err := c.Epoch(u)
				if err != nil {
					t.Fatalf("world %d shards %d epoch %d: %v", world, shards, e, err)
				}
				lines = append(lines, fmt.Sprintf("%d\t%d\t%d\t%s", world, shards, e, epochDigest(t, c, stats)))
			}
		}
	}
	checkGoldenRows(t, epochGoldenPath, *updateEpochGolden, lines)
}
