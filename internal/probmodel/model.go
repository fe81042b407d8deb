package probmodel

import (
	"slices"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/engine"
	"gps/internal/features"
	"gps/internal/netmodel"
)

// DefaultFloor is the probability below which GPS discards a pattern
// (§5.4): 1e-5 is roughly the hit rate of randomly probing the majority of
// ports, so predictions below it are no better than random probing.
const DefaultFloor = 1e-5

// Config controls model construction.
type Config struct {
	// Families selects which conditional-probability families to model;
	// defaults to AllFamilies.
	Families FamilySet
	// Floor is the minimum probability a pattern must reach to be used;
	// defaults to DefaultFloor. Set negative to disable the floor
	// (ablation).
	Floor float64
	// AppKeys restricts which application-layer features are used; nil
	// allows all of Table 1.
	AppKeys []features.Key
	// NetKeys selects the network-layer features; nil uses GPS's
	// production pair (/16 subnet + ASN). Appendix C's candidate sweep
	// passes features.CandidateNetworkKeys().
	NetKeys []features.Key
	// MinSupport is the minimum number of seed hosts a condition must be
	// observed on before its probabilities count; defaults to 2. A
	// pattern seen on a single host cannot generalize — this is the
	// paper's "at least two responsive IP addresses to train from"
	// premise. Set negative to disable (ablation).
	MinSupport int
	// Engine configures the parallel compute substrate.
	Engine engine.Config
}

func (c Config) withDefaults() Config {
	if c.Families == 0 {
		c.Families = AllFamilies
	}
	if c.Floor == 0 {
		c.Floor = DefaultFloor
	} else if c.Floor < 0 {
		c.Floor = 0
	}
	if c.NetKeys == nil {
		c.NetKeys = DefaultNetKeys()
	}
	if c.MinSupport == 0 {
		c.MinSupport = 2
	} else if c.MinSupport < 0 {
		c.MinSupport = 1
	}
	return c
}

// CondID names a condition inside one Dict: its index in the dictionary,
// dense from 0 in order of first compilation. An id means nothing to
// another Dict, and no output depends on how ids are numbered.
type CondID uint32

// NoCond is the CondID of no condition.
const NoCond = ^CondID(0)

// condKey is a condition as the dictionary stores it: fixed-size and
// pointer-free, so hashing it touches no string. appVal indexes
// Dict.strs; netVal is the subnet's network address for a subnet key and
// the AS number for KeyASN — the formatted spellings ("10.0.0.0/16",
// "AS7") exist only in Cond.
type condKey struct {
	port   uint16
	appKey features.Key
	netKey features.Key
	appVal uint32
	netVal uint32
}

// Dict is a grow-only condition dictionary under one Config. A Model
// built under it resolves through it, so it must not grow while the
// model is queried.
type Dict struct {
	cfg        Config
	enabledKey map[features.Key]bool // nil = all
	nets       []netSlot             // cfg.NetKeys, resolved
	strID      map[string]uint32     // application feature value → index in strs
	strs       []string              // the values, for rendering a Cond
	dict       map[condKey]CondID
	keys       []condKey // CondID → key
	scratch    Scratch   // Compile's
}

// NewDict returns an empty dictionary for models under cfg.
func NewDict(cfg Config) *Dict {
	cfg = cfg.withDefaults()
	d := &Dict{cfg: cfg, strID: make(map[string]uint32), dict: make(map[condKey]CondID)}
	if cfg.AppKeys != nil {
		d.enabledKey = make(map[features.Key]bool, len(cfg.AppKeys))
		for _, k := range cfg.AppKeys {
			d.enabledKey[k] = true
		}
	}
	for _, k := range cfg.NetKeys {
		if bits, ok := k.SubnetBits(); ok {
			d.nets = append(d.nets, netSlot{key: k, mask: asndb.Mask(bits)})
		} else if k == features.KeyASN {
			d.nets = append(d.nets, netSlot{key: k, asn: true})
		}
	}
	return d
}

// Compile is the one compiler: it appends the ids of the conditions r
// exhibits to dst, interning every one not yet held.
func (d *Dict) Compile(dst []CondID, r dataset.Record) []CondID {
	return d.appendConds(dst, r, &d.scratch, true)
}

// Compiled is a run of records compiled under Dict: record i's ids are
// IDs[Off[i]:Off[i+1]], and Recs[i] is the record (none if Build compiled).
type Compiled struct {
	Dict *Dict
	Recs []dataset.Record
	Off  []uint32
	IDs  []CondID
}

// find returns the ids of the record Recs holds at r's (IP, port) if it
// agrees with r on every other field Compile reads (ASN, features).
func (c *Compiled) find(r dataset.Record) ([]CondID, bool) {
	i, _ := slices.BinarySearchFunc(c.Recs, r.Key(), func(x dataset.Record, k netmodel.Key) int { return x.Key().Compare(k) })
	return c.idsAt(i, r)
}

// idsAt is find at index i.
func (c *Compiled) idsAt(i int, r dataset.Record) ([]CondID, bool) {
	if i >= len(c.Recs) || c.Recs[i].Key() != r.Key() || c.Recs[i].ASN != r.ASN || !slices.Equal(c.Recs[i].Feats, r.Feats) {
		return nil, false
	}
	return c.IDs[c.Off[i]:c.Off[i+1]:c.Off[i+1]], true
}

// Recompile returns recs, a strict (IP, port) run, compiled under c's
// Dict: a record c holds unchanged keeps its ids (one cursor finds it:
// Recs is a run too), only others compile.
func (c *Compiled) Recompile(recs []dataset.Record) Compiled {
	out := Compiled{Dict: c.Dict, Recs: recs, Off: make([]uint32, 1, len(recs)+1), IDs: make([]CondID, 0, max(len(c.IDs), 8*len(recs)))}
	j := 0
	for _, r := range recs {
		for j < len(c.Recs) && c.Recs[j].Key().Compare(r.Key()) < 0 {
			j++
		}
		if ids, ok := c.idsAt(j, r); ok {
			out.IDs = append(out.IDs, ids...)
		} else {
			out.IDs = out.Dict.Compile(out.IDs, r)
		}
		out.Off = append(out.Off, uint32(len(out.IDs)))
	}
	return out
}

// Model holds the trained conditional probabilities. It is immutable after
// Build and, while its Dict does not grow, safe for concurrent queries.
//
// Counts live in flat arrays indexed by CondID, sized by the Dict at
// Build. condHosts[id] is the number of seed hosts exhibiting the
// condition; the hosts that also had another port open are one CSR row
// per condition — rowOff[id] to rowOff[id+1] in pairPort (ascending) and
// pairHosts — which ProbID binary searches. seedBest holds every input
// record's best condition, one flat slice aligned with Build's input.
// No count depends on the ids' numbering or on Config.Engine.
type Model struct {
	dict      *Dict
	run       Compiled   // Build's input, compiled
	nconds    int        // conditions the input exhibits
	condHosts []uint32   // CondID → hosts exhibiting it
	rowOff    []uint32   // CondID → start of its row; len(condHosts)+1
	pairPort  []uint16   // other open ports, ascending within a row
	pairHosts []uint32   // hosts exhibiting the condition AND that port
	seedIP    []asndb.IP // Build's input hosts' addresses
	hostFirst []int      // host i's records are seedBest[hostFirst[i]:hostFirst[i+1]]
	seedBest  []Best     // Build's input records → best condition on the host
	stats     engine.Stats
}

// netSlot is one configured network feature: a subnet length, or the ASN.
type netSlot struct {
	key  features.Key
	mask asndb.IP // subnet mask; unused for the ASN
	asn  bool
}

// Build trains the model over seed hosts compiled under a fresh Dict.
func Build(cfg Config, hosts []dataset.HostGroup) *Model {
	return (&Compiled{Dict: NewDict(cfg)}).Build(hosts)
}

// Build trains the model over seed hosts whose records, host by host,
// are the run's, in three passes; a run with no Off is first compiled
// from the hosts. Pass 1 counts the hosts exhibiting each condition; pass
// 2 counts the (condition, other open port) co-occurrences by a counting
// sort over condition ids into the CSR rows; pass 3 finds every seed
// service's best condition (SeedBest), which the priors and MPF lists
// both read.
func (c *Compiled) Build(hosts []dataset.HostGroup) *Model {
	// Host h's first record is the hostFirst[h]-th overall.
	hostFirst, seedIP := make([]int, len(hosts)+1), make([]asndb.IP, len(hosts))
	for i, h := range hosts {
		hostFirst[i+1], seedIP[i] = hostFirst[i]+len(h.Records), h.IP
	}
	nrec := hostFirst[len(hosts)]
	if c.Off == nil {
		c.Off, c.IDs = make([]uint32, 1, nrec+1), make([]CondID, 0, 8*nrec) // a guess; append corrects it
		for _, h := range hosts {
			for _, r := range h.Records {
				c.IDs = c.Dict.Compile(c.IDs, r)
				c.Off = append(c.Off, uint32(len(c.IDs)))
			}
		}
	}
	ids, recStart := c.IDs, c.Off
	m := &Model{dict: c.Dict, run: *c, condHosts: make([]uint32, len(c.Dict.keys)), seedIP: seedIP}

	// Pass 1: count hosts per condition, once per record that exhibits it.
	for _, id := range ids {
		if m.condHosts[id] == 0 {
			m.nconds++
		}
		m.condHosts[id]++
	}
	// pairsOf calls f for every ordered pair (b, a) of host i's records
	// on different ports, with b's condition ids.
	pairsOf := func(i int, f func(conds []CondID, a int)) {
		recs := hosts[i].Records
		for b, rb := range recs {
			rec := hostFirst[i] + b
			conds := ids[recStart[rec]:recStart[rec+1]]
			for a, ra := range recs {
				if ra.Port != rb.Port {
					f(conds, a)
				}
			}
		}
	}

	// Pass 2: count hosts per (condition, other open port). Pass 1's ids
	// size every condition's bucket exactly; each pair's port is placed
	// into its condition's bucket (pos[c] ends up at the bucket's start,
	// pos[c+1] at its end), and each bucket is sorted and run-length
	// counted into its CSR row.
	pos := make([]int, len(m.condHosts)+1)
	for i := range hosts {
		pairsOf(i, func(conds []CondID, _ int) {
			for _, c := range conds {
				pos[c]++
			}
		})
	}
	for c := 1; c < len(pos); c++ {
		pos[c] += pos[c-1]
	}
	ports := make([]uint16, pos[len(m.condHosts)])
	for i, h := range hosts {
		pairsOf(i, func(conds []CondID, a int) {
			for _, c := range conds {
				pos[c]--
				ports[pos[c]] = h.Records[a].Port
			}
		})
	}
	m.rowOff = make([]uint32, len(m.condHosts)+1)
	for c := range m.condHosts {
		row := ports[pos[c]:pos[c+1]]
		slices.Sort(row)
		for j := 0; j < len(row); {
			k := j + 1
			for k < len(row) && row[k] == row[j] {
				k++
			}
			m.pairPort = append(m.pairPort, row[j])
			m.pairHosts = append(m.pairHosts, uint32(k-j))
			j = k
		}
		m.rowOff[c+1] = uint32(len(m.pairPort))
	}

	// Pass 3: every seed record's best condition on its host's other
	// records, from the ids pass 1 kept.
	m.hostFirst, m.seedBest = hostFirst, make([]Best, len(recStart)-1)
	engine.ParallelFor(c.Dict.cfg.Engine, len(hosts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			recs, best := hosts[i].Records, m.seedBest[hostFirst[i]:hostFirst[i+1]]
			for a := range best {
				best[a].Cond = NoCond
			}
			pairsOf(i, func(conds []CondID, a int) {
				for _, c := range conds {
					if q := m.ProbID(c, recs[a].Port); q > best[a].P {
						best[a] = Best{Cond: c, P: q}
					}
				}
			})
		}
	})
	if len(hosts) > 0 {
		m.stats.RecordsIn.Add(2 * uint64(len(hosts))) // the two counting passes
		m.stats.PairsEmitted.Add(uint64(len(ids) + len(ports)))
	}
	return m
}

// Scratch is one goroutine's reusable working memory for Resolve. The
// zero value is ready; a slice returned from a call that took a Scratch is
// valid until the next call that takes the same one.
type Scratch struct {
	apps [features.NumKeys]appSlot
	ids  []CondID
}

// appSlot is one application feature of the record being compiled.
type appSlot struct {
	key features.Key
	val uint32 // the value's index in Dict.strs
}

// appendConds appends the ids of the conditions r exhibits, in the
// families' order (T, TA by key, TN by configured net key, TAN app-major). With
// intern set (Compile only) an unknown value or condition is added to the
// dictionary; otherwise it is left out, since it has no counts.
func (d *Dict) appendConds(dst []CondID, r dataset.Record, s *Scratch, intern bool) []CondID {
	apps := s.apps[:0]
	for _, v := range r.Feats {
		if d.enabledKey != nil && !d.enabledKey[v.Key] {
			continue
		}
		id, ok := d.strID[v.Val]
		if !ok {
			if !intern {
				continue
			}
			id = uint32(len(d.strs))
			d.strs = append(d.strs, v.Val)
			d.strID[v.Val] = id
		}
		apps = append(apps, appSlot{key: v.Key, val: id})
	}

	add := func(k condKey) {
		id, ok := d.dict[k]
		if !ok {
			if !intern {
				return
			}
			id = CondID(len(d.keys))
			d.dict[k] = id
			d.keys = append(d.keys, k)
		}
		dst = append(dst, id)
	}
	netVal := func(n netSlot) uint32 {
		if n.asn {
			return uint32(r.ASN)
		}
		return uint32(r.IP & n.mask)
	}
	fams := d.cfg.Families
	if fams.Has(FamilyT) {
		add(condKey{port: r.Port})
	}
	if fams.Has(FamilyTA) {
		for _, a := range apps {
			add(condKey{port: r.Port, appKey: a.key, appVal: a.val})
		}
	}
	if fams.Has(FamilyTN) {
		for _, n := range d.nets {
			add(condKey{port: r.Port, netKey: n.key, netVal: netVal(n)})
		}
	}
	if fams.Has(FamilyTAN) {
		for _, a := range apps {
			for _, n := range d.nets {
				add(condKey{port: r.Port, appKey: a.key, appVal: a.val, netKey: n.key, netVal: netVal(n)})
			}
		}
	}
	return dst
}

// Resolve returns the ids of the conditions r exhibits that the model's
// Dict holds, in Compile's order: a record the model was built from
// resolves to the ids it was compiled to, read off the run if it has
// Recs. A condition first met on an anchor — a banner, subnet or AS the
// seed never showed — has no counts and no rules, so it is left out
// rather than interned: resolving reads the dictionary and never writes it.
func (m *Model) Resolve(r dataset.Record, s *Scratch) []CondID {
	if ids, ok := m.run.find(r); ok {
		return ids
	}
	s.ids = m.dict.appendConds(s.ids[:0], r, s, false)
	return s.ids
}

// Best is the condition most predictive of one service of a host, with
// its probability. Cond is NoCond when no condition reaches the floor.
type Best struct {
	Cond CondID
	P    float64
}

// SeedBest returns, for every record of host i of Build's input in order,
// the condition on the host's other services that maximizes the
// probability of that record's port: the inner step of both the priors
// algorithm (§5.3) and the prediction algorithm (§5.4), computed once by
// Build for both. Ties keep the earlier record, then the earlier condition
// in Resolve's order, so simpler families win. The slice is the model's
// and read-only. It panics when h is not host i of Build's input.
func (m *Model) SeedBest(i int, h dataset.HostGroup) []Best {
	if i < 0 || i >= len(m.seedIP) || h.IP != m.seedIP[i] || len(h.Records) != m.hostFirst[i+1]-m.hostFirst[i] {
		panic("probmodel: best conditions asked for a host the model was not built from")
	}
	return m.seedBest[m.hostFirst[i]:m.hostFirst[i+1]:m.hostFirst[i+1]]
}

// NumConds returns the number of distinct conditions the input exhibits.
func (m *Model) NumConds() int { return m.nconds }

// NumIDs returns the size of the model's Dict at Build.
func (m *Model) NumIDs() int { return len(m.condHosts) }

// NumPairs returns the number of distinct (condition, port) pairs.
func (m *Model) NumPairs() int { return len(m.pairPort) }

// Stats exposes the work counters accumulated during Build — the analogue
// of Table 2's "data processed / shuffled". recordsIn counts every host
// twice, once per counting pass (conditions, then pairs); the
// best-condition pass reads only what those built and is not counted.
// pairsEmitted is the condition and pair observations counted.
func (m *Model) Stats() (recordsIn, pairsEmitted uint64) {
	return m.stats.RecordsIn.Load(), m.stats.PairsEmitted.Load()
}

// Port returns the port (PortB) of the condition.
func (m *Model) Port(id CondID) uint16 { return m.dict.keys[id].port }

// Cond renders the condition in its display form: this is where the
// interned application value, the subnet and the AS number become strings
// again.
func (m *Model) Cond(id CondID) Cond {
	k := m.dict.keys[id]
	c := Cond{Port: k.port, AppKey: k.appKey, NetKey: k.netKey}
	if k.appKey != features.KeyNone {
		c.AppVal = m.dict.strs[k.appVal]
	}
	if bits, ok := k.netKey.SubnetBits(); ok {
		c.NetVal = asndb.Prefix{Addr: asndb.IP(k.netVal), Bits: bits}.String()
	} else if k.netKey == features.KeyASN {
		c.NetVal = asndb.ASN(k.netVal).String()
	}
	return c
}

// ProbID returns P(portA open | cond), applying the configured floor and
// minimum support: a condition under the support, or a probability below
// the floor, returns 0 because GPS treats it as no better than random
// probing.
func (m *Model) ProbID(id CondID, portA uint16) float64 {
	denom := m.condHosts[id]
	if int(denom) < m.dict.cfg.MinSupport {
		return 0
	}
	lo := m.rowOff[id]
	i, ok := slices.BinarySearch(m.pairPort[lo:m.rowOff[id+1]], portA)
	if !ok {
		return 0
	}
	p := float64(m.pairHosts[int(lo)+i]) / float64(denom)
	if p < m.dict.cfg.Floor {
		return 0
	}
	return p
}

// BestCondForHost scans every other service on the host and returns the
// condition most predictive of portA, in display form. A seed host's
// every service has it precomputed: SeedBest.
func (m *Model) BestCondForHost(h dataset.HostGroup, portA uint16) (best Cond, p float64, ok bool) {
	var s Scratch
	id := NoCond
	for _, rb := range h.Records {
		if rb.Port == portA {
			continue
		}
		for _, c := range m.Resolve(rb, &s) {
			if q := m.ProbID(c, portA); q > p {
				id, p = c, q
			}
		}
	}
	if id == NoCond {
		return Cond{}, 0, false
	}
	return m.Cond(id), p, true
}
