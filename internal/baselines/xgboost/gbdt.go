// Package xgboost reimplements the paper's machine-learning comparison
// point (§6.4): Sarabi et al.'s "Smart Internet Probing" scanner, built on
// an XGBoost classifier. Their system treats each port as a class, trains
// one gradient-boosted-tree model per port in a fixed scanning sequence,
// and uses responses on previously scanned ports (plus network features)
// as input features. Because their code is closed source, this package
// provides a from-scratch gradient-boosted decision tree learner with
// logistic loss and second-order (Newton) leaf weights — the same
// algorithmic core as XGBoost — plus the sequential per-port scanner
// around it.
package xgboost

import (
	"math"
	"sort"
)

// Params are the boosting hyperparameters.
type Params struct {
	Trees        int     // number of boosting rounds
	Depth        int     // maximum tree depth
	LearningRate float64 // shrinkage per round
	Lambda       float64 // L2 regularization on leaf weights
	Gamma        float64 // minimum gain to split
	MinChild     float64 // minimum hessian sum per child
}

// DefaultParams returns a configuration adequate for the port-prediction
// task: shallow trees, moderate rounds.
func DefaultParams() Params {
	return Params{Trees: 30, Depth: 4, LearningRate: 0.3, Lambda: 1, Gamma: 0, MinChild: 1}
}

// node is one tree node in a flat array; leaves carry the weight.
type node struct {
	feat        int
	thresh      float32
	left, right int32
	leaf        bool
	weight      float64
}

type tree struct{ nodes []node }

func (t *tree) score(x []float32) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.leaf {
			return n.weight
		}
		if x[n.feat] < n.thresh {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Model is a trained boosted ensemble for binary classification.
type Model struct {
	trees []tree
	base  float64 // initial log-odds
	p     Params
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Train fits a model on a dense feature matrix X (rows are instances) and
// binary labels y. It panics when X is empty or ragged.
func Train(X [][]float32, y []bool, p Params) *Model {
	if len(X) == 0 || len(X) != len(y) {
		panic("xgboost: bad training input")
	}
	nFeat := len(X[0])
	pos := 0
	for _, v := range y {
		if v {
			pos++
		}
	}
	// Initial prediction: the prior log-odds, clamped away from
	// degenerate all-one/all-zero labels.
	prior := (float64(pos) + 0.5) / (float64(len(y)) + 1)
	m := &Model{base: math.Log(prior / (1 - prior)), p: p}

	score := make([]float64, len(X))
	for i := range score {
		score[i] = m.base
	}
	grad := make([]float64, len(X))
	hess := make([]float64, len(X))
	idx := make([]int, len(X))

	for round := 0; round < p.Trees; round++ {
		for i := range X {
			pr := sigmoid(score[i])
			t := 0.0
			if y[i] {
				t = 1
			}
			grad[i] = pr - t
			hess[i] = pr * (1 - pr)
		}
		for i := range idx {
			idx[i] = i
		}
		t := buildTree(X, grad, hess, idx, nFeat, p)
		m.trees = append(m.trees, t)
		for i := range X {
			score[i] += p.LearningRate * t.score(X[i])
		}
	}
	return m
}

// buildTree grows one regression tree greedily on the gradient statistics.
func buildTree(X [][]float32, grad, hess []float64, idx []int, nFeat int, p Params) tree {
	var t tree
	var grow func(idx []int, depth int) int32
	grow = func(idx []int, depth int) int32 {
		var G, H float64
		for _, i := range idx {
			G += grad[i]
			H += hess[i]
		}
		me := int32(len(t.nodes))
		t.nodes = append(t.nodes, node{})
		leafWeight := -G / (H + p.Lambda)

		if depth >= p.Depth || len(idx) < 2 {
			t.nodes[me] = node{leaf: true, weight: leafWeight}
			return me
		}
		bestGain := p.Gamma
		bestFeat, bestThresh := -1, float32(0)
		parentObj := G * G / (H + p.Lambda)
		for f := 0; f < nFeat; f++ {
			for _, thr := range thresholds(X, idx, f) {
				var GL, HL float64
				for _, i := range idx {
					if X[i][f] < thr {
						GL += grad[i]
						HL += hess[i]
					}
				}
				GR, HR := G-GL, H-HL
				if HL < p.MinChild || HR < p.MinChild {
					continue
				}
				gain := 0.5 * (GL*GL/(HL+p.Lambda) + GR*GR/(HR+p.Lambda) - parentObj)
				if gain > bestGain {
					bestGain, bestFeat, bestThresh = gain, f, thr
				}
			}
		}
		if bestFeat < 0 {
			t.nodes[me] = node{leaf: true, weight: leafWeight}
			return me
		}
		var lIdx, rIdx []int
		for _, i := range idx {
			if X[i][bestFeat] < bestThresh {
				lIdx = append(lIdx, i)
			} else {
				rIdx = append(rIdx, i)
			}
		}
		l := grow(lIdx, depth+1)
		r := grow(rIdx, depth+1)
		t.nodes[me] = node{feat: bestFeat, thresh: bestThresh, left: l, right: r}
		return me
	}
	grow(idx, 0)
	return t
}

// thresholds returns up to 15 candidate split points for a feature over
// the instance subset: midpoints between adjacent distinct quantile
// values. Binary features yield the single candidate 0.5.
func thresholds(X [][]float32, idx []int, f int) []float32 {
	const maxSamples = 256
	vals := make([]float32, 0, maxSamples)
	stride := len(idx)/maxSamples + 1
	for i := 0; i < len(idx); i += stride {
		vals = append(vals, X[idx[i]][f])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	uniq := vals[:0]
	for i, v := range vals {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) < 2 {
		return nil
	}
	const maxCand = 15
	var out []float32
	step := (len(uniq) - 1) / maxCand
	if step < 1 {
		step = 1
	}
	for i := 1; i < len(uniq); i += step {
		out = append(out, (uniq[i-1]+uniq[i])/2)
	}
	return out
}

// Score returns the raw log-odds for one instance.
func (m *Model) Score(x []float32) float64 {
	s := m.base
	for i := range m.trees {
		s += m.p.LearningRate * m.trees[i].score(x)
	}
	return s
}
