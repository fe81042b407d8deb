package probmodel

import (
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
// oracle's.
func FuzzModelBuild(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x00, 0x02, 0x15, 0x81, 0x10, 0x01, 0x05, 0x02, 0x2a})
	f.Add([]byte{0x21, 0x81, 0x00, 0x81, 0x00, 0x01, 0x01, 0x81, 0xf0, 0x02, 0x00, 0x02, 0x04})
	f.Add([]byte{0x0c, 0x80, 0x03, 0x80, 0x03, 0x00, 0x07, 0x81, 0x33, 0x03, 0x30, 0x04, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, hosts := fuzzHosts(data)
		m := Build(cfg, hosts)
		o := buildOracle(cfg, hosts)
		checkCounts(t, "fuzz", m, o, len(hosts), fuzzPorts)
		checkSeedBest(t, "fuzz", m, o, hosts)
	})
}
