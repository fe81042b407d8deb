package probmodel

import (
	"fmt"
	"strconv"
	"strings"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/features"
)

// The display-form side of the model that only tests read: the
// string-keyed enumeration the oracle counts with, and the Cond-keyed
// queries the hand-computed cases ask.

// Family derives the family from which slots are filled.
func (c Cond) Family() Family {
	switch {
	case c.AppKey != features.KeyNone && c.NetKey != features.KeyNone:
		return FamilyTAN
	case c.AppKey != features.KeyNone:
		return FamilyTA
	case c.NetKey != features.KeyNone:
		return FamilyTN
	default:
		return FamilyT
	}
}

// String renders the condition in the paper's tuple notation.
func (c Cond) String() string {
	switch c.Family() {
	case FamilyTA:
		return fmt.Sprintf("(%d, %s=%s)", c.Port, c.AppKey, c.AppVal)
	case FamilyTN:
		return fmt.Sprintf("(%d, %s=%s)", c.Port, c.NetKey, c.NetVal)
	case FamilyTAN:
		return fmt.Sprintf("(%d, %s=%s, %s=%s)", c.Port, c.AppKey, c.AppVal, c.NetKey, c.NetVal)
	default:
		return fmt.Sprintf("(%d)", c.Port)
	}
}

// NetFeatures computes the requested network-layer feature values for a
// record's address, formatted for display. The model keeps the same values
// as integers.
func NetFeatures(r dataset.Record, netKeys []features.Key) []features.Value {
	out := make([]features.Value, 0, len(netKeys))
	for _, k := range netKeys {
		if bits, ok := k.SubnetBits(); ok {
			out = append(out, features.Value{Key: k, Val: asndb.SubnetOf(r.IP, bits).String()})
		} else if k == features.KeyASN {
			out = append(out, features.Value{Key: k, Val: r.ASN.String()})
		}
	}
	return out
}

// CondsOf enumerates every condition tuple a record contributes, in
// display form, filtered to the enabled families and feature keys. Its
// order is the order the model assigns ids and breaks ties in.
// enabledKeys may be nil to allow all application features; nets carries
// the precomputed network-layer values for the record's address.
func CondsOf(r dataset.Record, fams FamilySet, enabledKeys map[features.Key]bool, nets []features.Value) []Cond {
	apps := make([]features.Value, 0, len(r.Feats))
	for _, v := range r.Feats {
		if enabledKeys == nil || enabledKeys[v.Key] {
			apps = append(apps, v)
		}
	}
	out := make([]Cond, 0, (1+len(apps))*(1+len(nets)))
	if fams.Has(FamilyT) {
		out = append(out, Cond{Port: r.Port})
	}
	if fams.Has(FamilyTA) {
		for _, a := range apps {
			out = append(out, Cond{Port: r.Port, AppKey: a.Key, AppVal: a.Val})
		}
	}
	if fams.Has(FamilyTN) {
		for _, n := range nets {
			out = append(out, Cond{Port: r.Port, NetKey: n.Key, NetVal: n.Val})
		}
	}
	if fams.Has(FamilyTAN) {
		for _, a := range apps {
			for _, n := range nets {
				out = append(out, Cond{Port: r.Port, AppKey: a.Key, AppVal: a.Val,
					NetKey: n.Key, NetVal: n.Val})
			}
		}
	}
	return out
}

// Lookup returns the id of a condition given in display form; ok is false
// when the seed never exhibited it. The network value is parsed back into
// the integer the dictionary is keyed on, and a spelling other than the
// one Cond renders ("AS07", a prefix with host bits) is not found, as it
// never was.
func (m *Model) Lookup(c Cond) (id CondID, ok bool) {
	k := condKey{port: c.Port, appKey: c.AppKey, netKey: c.NetKey}
	if c.AppKey != features.KeyNone {
		if k.appVal, ok = m.dict.strID[c.AppVal]; !ok {
			return NoCond, false
		}
	}
	if _, subnet := c.NetKey.SubnetBits(); subnet {
		// The length and the host bits are left to the spelling check.
		addr, _, _ := strings.Cut(c.NetVal, "/")
		ip, err := asndb.ParseIP(addr)
		if err != nil {
			return NoCond, false
		}
		k.netVal = uint32(ip)
	} else if c.NetKey == features.KeyASN {
		digits, _ := strings.CutPrefix(c.NetVal, "AS")
		n, err := strconv.ParseUint(digits, 10, 32)
		if err != nil {
			return NoCond, false
		}
		k.netVal = uint32(n)
	}
	if id, ok = m.dict.dict[k]; !ok || int(id) >= len(m.condHosts) || m.condHosts[id] == 0 || m.Cond(id) != c {
		return NoCond, false
	}
	return id, true
}

// CondHosts returns how many seed hosts exhibited the condition.
func (m *Model) CondHosts(c Cond) uint64 {
	id, ok := m.Lookup(c)
	if !ok {
		return 0
	}
	return uint64(m.condHosts[id])
}

// Prob is ProbID for a condition in display form; a condition the seed
// never exhibited has probability 0.
func (m *Model) Prob(c Cond, portA uint16) float64 {
	id, ok := m.Lookup(c)
	if !ok {
		return 0
	}
	return m.ProbID(id, portA)
}
