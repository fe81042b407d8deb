package main

import (
	"math/rand"
	"sort"

	"gps"
	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/shard"
)

// hostDensity is the share of addresses that answer in every generated
// world but epoch-dist's (which uses netmodel.TestParams as is).
const hostDensity = 0.03

// allServices generates a world of the given size and observes every
// real service in it: the ground truth the inventories are built from.
func allServices(seed int64, prefixes int) (*netmodel.Universe, *dataset.Dataset) {
	u := netmodel.Generate(gps.DemoUniverseParams(seed, prefixes, hostDensity))
	return u, dataset.SnapshotLZR(u, 1.0, seed^0x11)
}

func keyLess(a, b netmodel.Key) bool {
	if a.IP != b.IP {
		return a.IP < b.IP
	}
	return a.Port < b.Port
}

// churner mutates an inventory the way the paper's §3 churn does, one
// commit at a time: a seeded third of the churned share disappears, a
// third appears and a third is re-observed. Every choice comes from the
// seeded generator over slices in a fixed order, so the same seed yields
// the same inventories.
type churner struct {
	rng     *rand.Rand
	frac    float64
	present []netmodel.Key
	absent  []dataset.Record
}

// newChurner splits the records into an epoch-0 inventory and a held-out
// tenth that later commits add from. The entries carry what a GPSV file
// or a replica holds, not the application-layer features, which no
// inventory format or serving index reads: keeping them would keep the
// whole generated world reachable, and the collector marking it.
func newChurner(seed int64, frac float64, records []dataset.Record) (*churner, map[netmodel.Key]*continuous.Entry) {
	recs := append([]dataset.Record(nil), records...)
	for i := range recs {
		recs[i].Feats = nil
	}
	sort.Slice(recs, func(i, j int) bool { return keyLess(recs[i].Key(), recs[j].Key()) })
	c := &churner{rng: rand.New(rand.NewSource(seed)), frac: frac}
	inv := make(map[netmodel.Key]*continuous.Entry, len(recs))
	for i, rec := range recs {
		if i%10 == 9 {
			c.absent = append(c.absent, rec)
			continue
		}
		inv[rec.Key()] = &continuous.Entry{Rec: rec}
		c.present = append(c.present, rec.Key())
	}
	return c, inv
}

// next returns a fresh inventory: cur with this commit's churn applied.
// cur is not touched, so it can stay with whoever holds it.
func (c *churner) next(cur map[netmodel.Key]*continuous.Entry, epoch int) map[netmodel.Key]*continuous.Entry {
	out := shard.CloneInventory(cur)
	n := int(c.frac * float64(len(c.present)) / 3)
	if n > len(c.absent) {
		n = len(c.absent)
	}
	before := len(c.present)
	for i := 0; i < n; i++ {
		j := c.rng.Intn(len(c.absent))
		rec := c.absent[j]
		c.absent[j] = c.absent[len(c.absent)-1]
		c.absent = c.absent[:len(c.absent)-1]
		out[rec.Key()] = &continuous.Entry{Rec: rec, FirstSeen: epoch, LastSeen: epoch}
		c.present = append(c.present, rec.Key())
	}
	// Removals and re-observations draw from the keys present before
	// the additions, so the three sets stay disjoint from the adds.
	for i := 0; i < n && before > 0; i++ {
		j := c.rng.Intn(before)
		k := c.present[j]
		c.absent = append(c.absent, out[k].Rec)
		delete(out, k)
		before--
		c.present[j] = c.present[before]
		c.present[before] = c.present[len(c.present)-1]
		c.present = c.present[:len(c.present)-1]
	}
	for i := 0; i < n && before > 0; i++ {
		out[c.present[c.rng.Intn(before)]].LastSeen = epoch
	}
	return out
}
