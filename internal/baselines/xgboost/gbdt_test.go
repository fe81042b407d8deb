package xgboost

import (
	"math/rand"
	"testing"
)

func TestTrainLearnsConjunction(t *testing.T) {
	// y = x0 AND x1: requires at least depth-2 trees.
	rng := rand.New(rand.NewSource(1))
	var X [][]float32
	var y []bool
	for i := 0; i < 400; i++ {
		a, b := float32(rng.Intn(2)), float32(rng.Intn(2))
		X = append(X, []float32{a, b, float32(rng.Intn(2))})
		y = append(y, a == 1 && b == 1)
	}
	m := Train(X, y, DefaultParams())
	correct := 0
	for i := range X {
		pred := sigmoid(m.Score(X[i])) > 0.5
		if pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.98 {
		t.Errorf("accuracy %.3f on a noiseless conjunction; want ~1", acc)
	}
	if len(m.trees) != DefaultParams().Trees {
		t.Errorf("ensemble holds %d trees", len(m.trees))
	}
}

func TestTrainLearnsContinuousThreshold(t *testing.T) {
	// y = x0 > 0.6: requires continuous split finding.
	rng := rand.New(rand.NewSource(2))
	var X [][]float32
	var y []bool
	for i := 0; i < 500; i++ {
		v := rng.Float32()
		X = append(X, []float32{v})
		y = append(y, v > 0.6)
	}
	m := Train(X, y, DefaultParams())
	correct := 0
	for i := range X {
		if (sigmoid(m.Score(X[i])) > 0.5) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.95 {
		t.Errorf("accuracy %.3f on a threshold task", acc)
	}
}

func TestTrainImbalancedBaseRate(t *testing.T) {
	// All-negative labels: the model must predict a low probability
	// everywhere, not blow up.
	X := [][]float32{{0}, {1}, {0}, {1}}
	y := []bool{false, false, false, false}
	m := Train(X, y, DefaultParams())
	if p := sigmoid(m.Score([]float32{1})); p > 0.4 {
		t.Errorf("all-negative training predicted %f", p)
	}
}

func TestScoreMonotoneInSignal(t *testing.T) {
	// Positive correlation with x0: the positive instance must outscore
	// the negative one.
	rng := rand.New(rand.NewSource(3))
	var X [][]float32
	var y []bool
	for i := 0; i < 300; i++ {
		a := float32(rng.Intn(2))
		X = append(X, []float32{a})
		y = append(y, a == 1 && rng.Float64() < 0.9 || a == 0 && rng.Float64() < 0.1)
	}
	m := Train(X, y, DefaultParams())
	if m.Score([]float32{1}) <= m.Score([]float32{0}) {
		t.Error("score not monotone in the predictive feature")
	}
}

func TestTrainPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Train with empty input did not panic")
		}
	}()
	Train(nil, nil, DefaultParams())
}
