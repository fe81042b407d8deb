package probmodel

import (
	"slices"
	"testing"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/features"
)

// fuzzPorts is the pool a fuzzed service draws its port from: few, so
// pairs co-occur and a host repeats a port often.
var fuzzPorts = []uint16{22, 80, 443, 8080, 65535}

// fuzzHosts decodes data into a configuration and a small host list. The
// first byte picks one of oracleConfigs and a worker count; then every two
// bytes are one record. In the first byte of a record, bit 7 starts a new
// host and bits 0–2 pick the port; the second byte picks the protocol and
// banner values (bits 0–3, the empty string and an absent key among them)
// and, for a new host, how far its address lies from the last one
// (bits 4–7, crossing /16 and AS boundaries).
func fuzzHosts(data []byte) (Config, []dataset.HostGroup) {
	if len(data) == 0 {
		return Config{}, nil
	}
	cfgs := oracleConfigs()
	cfg := cfgs[int(data[0])%len(cfgs)]
	cfg.Engine = engineCfg(1 + int(data[0]>>4)%3)
	if len(data) > 49 { // 24 records: the oracle is quadratic in a host's records
		data = data[:49]
	}
	vals := []string{"", "a", "b"}
	var hosts []dataset.HostGroup
	ip := asndb.IP(0x0a000000)
	for i := 1; i+1 < len(data); i += 2 {
		sel, feat := data[i], data[i+1]
		if sel&0x80 != 0 || len(hosts) == 0 {
			ip += asndb.IP(1+feat>>4) << 13
			hosts = append(hosts, dataset.HostGroup{IP: ip})
		}
		r := dataset.Record{
			IP: ip, Port: fuzzPorts[int(sel&7)%len(fuzzPorts)],
			ASN: asndb.ASN(64500 + uint32(ip>>17)%2),
		}
		var set []features.Value
		if v := int(feat & 3); v < len(vals) {
			set = append(set, features.Value{Key: features.KeyProtocol, Val: vals[v]})
		}
		if v := int(feat>>2) & 3; v < len(vals) {
			set = append(set, features.Value{Key: features.KeySSHBanner, Val: vals[v]})
		}
		r.Feats = features.NewSet(set...)
		h := &hosts[len(hosts)-1]
		h.Records = append(h.Records, r)
	}
	return cfg, hosts
}

// FuzzModelBuild: on host lists decoded from the fuzzer's bytes, Build's
// condition counts, every (condition, port) count, Stats and the best
// condition stored for every seed service agree with the string-keyed
// oracle's — and so do those of two models built under a dictionary that
// other records grew first, whose ids are numbered otherwise and include
// conditions the input lacks: one compiled by Build and one by Recompile
// over an earlier run.
func FuzzModelBuild(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x00, 0x02, 0x15, 0x81, 0x10, 0x01, 0x05, 0x02, 0x2a})
	f.Add([]byte{0x21, 0x81, 0x00, 0x81, 0x00, 0x01, 0x01, 0x81, 0xf0, 0x02, 0x00, 0x02, 0x04})
	f.Add([]byte{0x0c, 0x80, 0x03, 0x80, 0x03, 0x00, 0x07, 0x81, 0x33, 0x03, 0x30, 0x04, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, hosts := fuzzHosts(data)
		o := buildOracle(cfg, hosts)
		grown, reused, strangers := buildGrown(t, cfg, hosts)
		for name, m := range map[string]*Model{"fresh": Build(cfg, hosts), "grown": grown, "reused": reused} {
			checkCounts(t, name, m, o, len(hosts), fuzzPorts)
			checkSeedBest(t, name, m, o, hosts)
			for _, h := range append(strangers, hosts...) {
				for _, ra := range h.Records {
					want, wantP, wantOK := o.bestCondForHost(h, ra.Port)
					if got, gotP, gotOK := m.BestCondForHost(h, ra.Port); got != want || gotP != wantP || gotOK != wantOK {
						t.Fatalf("%s: BestCondForHost(%v, %d) = %v %v %v; oracle %v %v %v", name,
							h.IP, ra.Port, got, gotP, gotOK, want, wantP, wantOK)
					}
				}
			}
		}
	})
}

// buildGrown builds the model over hosts twice under a dictionary that
// first compiled unrelated records — the hosts' own, moved to other
// networks and ports with other values — and then the hosts' records in
// reverse: grown compiled by Build, which Resolve reads through the
// dictionary, and reused by Recompile over a run of those records, which
// Resolve reads off the run for a record it holds unchanged. The
// returned strangers are the hosts' records with other values, or only
// another ASN, whose conditions the dictionary lacks. A record the models
// were built from must resolve to the ids it was compiled to, and every
// record and stranger to the same ids in both models.
func buildGrown(t *testing.T, cfg Config, hosts []dataset.HostGroup) (grown, reused *Model, strangers []dataset.HostGroup) {
	d := NewDict(cfg)
	var recs []dataset.Record
	for _, h := range hosts {
		recs = append(recs, h.Records...)
	}
	other := func(r dataset.Record, tag string) dataset.Record {
		r.IP, r.Port, r.ASN = r.IP^0x55550000, r.Port^1, r.ASN+7
		var set []features.Value
		for _, v := range r.Feats {
			set = append(set, features.Value{Key: v.Key, Val: tag + v.Val})
		}
		r.Feats = features.NewSet(set...)
		return r
	}
	for i := len(recs) - 1; i >= 0; i-- {
		d.Compile(nil, other(recs[i], "x"))
		d.Compile(nil, recs[i])
	}
	c := &Compiled{Dict: d}
	grown = c.Build(hosts)
	earlier := (&Compiled{Dict: d}).Recompile(recs)
	rc := earlier.Recompile(recs)
	reused = rc.Build(hosts)
	strangers = make([]dataset.HostGroup, len(hosts))
	for i, h := range hosts {
		strangers[i].IP = h.IP
		for _, r := range h.Records {
			s := other(r, "y")
			s.IP, s.Port, s.ASN = r.IP, r.Port, r.ASN
			a := r
			a.ASN++
			strangers[i].Records = append(strangers[i].Records, s, a)
		}
	}
	var s, sr Scratch
	for i, r := range recs {
		want := c.IDs[c.Off[i]:c.Off[i+1]]
		if got, re := grown.Resolve(r, &s), rc.IDs[rc.Off[i]:rc.Off[i+1]]; !slices.Equal(got, want) || !slices.Equal(re, want) {
			t.Fatalf("record %d resolves to %v, was compiled to %v and recompiled to %v", i, got, want, re)
		}
	}
	for _, h := range append(slices.Clone(strangers), hosts...) {
		for _, r := range h.Records {
			if got, want := reused.Resolve(r, &sr), grown.Resolve(r, &s); !slices.Equal(got, want) {
				t.Fatalf("%v:%d resolves to %v off the run, %v through the dictionary", r.IP, r.Port, got, want)
			}
		}
	}
	return grown, reused, strangers
}
