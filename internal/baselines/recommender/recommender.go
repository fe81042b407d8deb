// Package recommender implements the hybrid recommendation-system baseline
// of Appendix A: a LightFM-style matrix factorization model that treats IP
// addresses as users, ports as items, and learns latent embeddings as sums
// of feature embeddings (so unseen test IPs are scored through their
// network features — the cold-start path). Trained with a BPR-style
// pairwise ranking loss over (IP, port) positives with sampled negatives.
//
// The paper finds this approach caps out at ~47% of all services and ~1.5%
// of normalized services because recommenders cannot attach features to
// the (IP, port) *interaction*, which is where GPS's application-layer
// signal lives. This package reproduces that negative result.
package recommender

import (
	"math"
	"math/rand"
	"sort"

	"gps/internal/asndb"
	"gps/internal/dataset"
)

// Config are the model hyperparameters.
type Config struct {
	Dim    int     // embedding dimensionality
	Epochs int     // training passes over positives
	LR     float64 // SGD learning rate
	Reg    float64 // L2 regularization
	TopK   int     // ports recommended per IP at evaluation
	Seed   int64
}

// DefaultConfig mirrors the appendix's setup: 100 recommendations per IP.
func DefaultConfig(seed int64) Config {
	return Config{Dim: 16, Epochs: 8, LR: 0.05, Reg: 1e-5, TopK: 100, Seed: seed}
}

// userFeatures derives the feature tokens of an IP: its /16, /20 and ASN,
// exactly the network-layer features Appendix A experiments with.
func userFeatures(ip asndb.IP, asn asndb.ASN) []string {
	return []string{
		"sub16:" + asndb.SubnetOf(ip, 16).String(),
		"sub20:" + asndb.SubnetOf(ip, 20).String(),
		"asn:" + asn.String(),
	}
}

// iana is a tiny registry of IANA-assigned ports used for the binary item
// feature the appendix describes.
var iana = map[uint16]bool{
	21: true, 22: true, 23: true, 25: true, 53: true, 80: true, 110: true,
	119: true, 143: true, 443: true, 445: true, 465: true, 554: true,
	587: true, 623: true, 993: true, 995: true, 1433: true, 1723: true,
	3306: true, 3389: true, 5432: true, 5900: true, 8080: true, 11211: true,
}

// Model is the trained factorization model.
type Model struct {
	cfg      Config
	featIdx  map[string]int
	featEmb  [][]float64 // user-side feature embeddings
	itemEmb  [][]float64 // per-port identity embeddings
	itemBias []float64
	assigned []float64 // embedding for the "IANA assigned" item feature
	ports    []uint16  // ports seen at training, the candidate set
}

// Train fits the model on the seed set's (IP, port) positives.
func Train(seedSet *dataset.Dataset, cfg Config) *Model {
	if cfg.Dim == 0 {
		cfg = DefaultConfig(cfg.Seed)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg, featIdx: make(map[string]int)}

	// Collect vocabulary: user features and ports.
	type pos struct {
		feats []int
		port  int // index into m.ports
	}
	portIdx := make(map[uint16]int)
	var positives []pos
	for _, r := range seedSet.Records {
		pi, ok := portIdx[r.Port]
		if !ok {
			pi = len(m.ports)
			portIdx[r.Port] = pi
			m.ports = append(m.ports, r.Port)
		}
		var fidx []int
		for _, f := range userFeatures(r.IP, r.ASN) {
			id, ok := m.featIdx[f]
			if !ok {
				id = len(m.featIdx)
				m.featIdx[f] = id
			}
			fidx = append(fidx, id)
		}
		positives = append(positives, pos{feats: fidx, port: pi})
	}

	initVec := func() []float64 {
		v := make([]float64, cfg.Dim)
		for i := range v {
			v[i] = (rng.Float64() - 0.5) / float64(cfg.Dim)
		}
		return v
	}
	m.featEmb = make([][]float64, len(m.featIdx))
	for i := range m.featEmb {
		m.featEmb[i] = initVec()
	}
	m.itemEmb = make([][]float64, len(m.ports))
	for i := range m.itemEmb {
		m.itemEmb[i] = initVec()
	}
	m.itemBias = make([]float64, len(m.ports))
	m.assigned = initVec()

	userVec := make([]float64, cfg.Dim)
	grad := make([]float64, cfg.Dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(positives), func(i, j int) { positives[i], positives[j] = positives[j], positives[i] })
		for _, p := range positives {
			m.userInto(userVec, p.feats)
			neg := rng.Intn(len(m.ports))
			if neg == p.port {
				continue
			}
			sPos := m.scoreIdx(userVec, p.port)
			sNeg := m.scoreIdx(userVec, neg)
			// BPR: maximize sigma(sPos - sNeg).
			z := 1 / (1 + math.Exp(sPos-sNeg)) // d loss / d (sPos - sNeg), negated
			ip, in := m.itemEmb[p.port], m.itemEmb[neg]
			for d := 0; d < cfg.Dim; d++ {
				grad[d] = z * (m.itemVecAt(p.port, d) - m.itemVecAt(neg, d))
			}
			for d := 0; d < cfg.Dim; d++ {
				du := grad[d]
				di := z * userVec[d]
				ip[d] += cfg.LR * (di - cfg.Reg*ip[d])
				in[d] += cfg.LR * (-di - cfg.Reg*in[d])
				for _, f := range p.feats {
					m.featEmb[f][d] += cfg.LR * (du - cfg.Reg*m.featEmb[f][d])
				}
			}
			m.itemBias[p.port] += cfg.LR * z
			m.itemBias[neg] -= cfg.LR * z
		}
	}
	return m
}

// itemVecAt returns dimension d of an item's effective embedding (identity
// plus the assigned-flag feature embedding).
func (m *Model) itemVecAt(pi, d int) float64 {
	v := m.itemEmb[pi][d]
	if iana[m.ports[pi]] {
		v += m.assigned[d]
	}
	return v
}

// userInto writes the user embedding (mean of feature embeddings) into dst.
func (m *Model) userInto(dst []float64, feats []int) {
	for d := range dst {
		dst[d] = 0
	}
	if len(feats) == 0 {
		return
	}
	for _, f := range feats {
		for d, v := range m.featEmb[f] {
			dst[d] += v
		}
	}
	inv := 1 / float64(len(feats))
	for d := range dst {
		dst[d] *= inv
	}
}

func (m *Model) scoreIdx(userVec []float64, pi int) float64 {
	s := m.itemBias[pi]
	for d, v := range userVec {
		s += v * m.itemVecAt(pi, d)
	}
	return s
}

// Recommend returns the top-K ports for an IP, scored through its network
// features (cold start for unseen IPs).
func (m *Model) Recommend(ip asndb.IP, asn asndb.ASN, k int) []uint16 {
	var fidx []int
	for _, f := range userFeatures(ip, asn) {
		if id, ok := m.featIdx[f]; ok {
			fidx = append(fidx, id)
		}
	}
	userVec := make([]float64, m.cfg.Dim)
	m.userInto(userVec, fidx)
	type scored struct {
		port uint16
		s    float64
	}
	all := make([]scored, len(m.ports))
	for pi := range m.ports {
		all[pi] = scored{m.ports[pi], m.scoreIdx(userVec, pi)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].port < all[j].port
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint16, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].port
	}
	return out
}

// Result summarizes an evaluation run.
type Result struct {
	Probes   uint64
	Found    int
	GTTotal  int
	FracAll  float64
	FracNorm float64
}

// Evaluate recommends TopK ports for every test IP and measures how many
// test services the recommendations would discover.
func Evaluate(m *Model, testSet *dataset.Dataset) *Result {
	gtByIP := make(map[asndb.IP]map[uint16]bool)
	asnOf := make(map[asndb.IP]asndb.ASN)
	portGT := make(map[uint16]int)
	for _, r := range testSet.Records {
		g := gtByIP[r.IP]
		if g == nil {
			g = make(map[uint16]bool)
			gtByIP[r.IP] = g
		}
		g[r.Port] = true
		asnOf[r.IP] = r.ASN
		portGT[r.Port]++
	}
	res := &Result{GTTotal: testSet.NumServices()}
	portFound := make(map[uint16]int)
	for ip, g := range gtByIP {
		for _, port := range m.Recommend(ip, asnOf[ip], m.cfg.TopK) {
			res.Probes++
			if g[port] {
				res.Found++
				portFound[port]++
			}
		}
	}
	if res.GTTotal > 0 {
		res.FracAll = float64(res.Found) / float64(res.GTTotal)
	}
	var normAcc float64
	for port, total := range portGT {
		normAcc += float64(portFound[port]) / float64(total)
	}
	if len(portGT) > 0 {
		res.FracNorm = normAcc / float64(len(portGT))
	}
	return res
}
