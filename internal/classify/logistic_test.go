package classify

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// syntheticLinear builds a linearly separable-ish dataset with known
// generating weights.
func syntheticLinear(n int, seed uint64) Dataset {
	r := rng.New(seed)
	x := make([][]float64, n)
	y := make([]int, n)
	trueW := []float64{2, -1.5, 0.5}
	for i := range x {
		row := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		z := 0.3
		for j, w := range trueW {
			z += w * row[j]
		}
		if r.Float64() < Sigmoid(z) {
			y[i] = 1
		}
		x[i] = row
	}
	ds, err := NewDataset(x, y, []string{"f1", "f2", "f3"})
	if err != nil {
		panic(err)
	}
	return ds
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, nil, nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{0, 1}, nil); err == nil {
		t.Error("row/label mismatch accepted")
	}
	if _, err := NewDataset([][]float64{{1}, {1, 2}}, []int{0, 1}, nil); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{2}, nil); err == nil {
		t.Error("non-binary label accepted")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{1}, []string{"a", "b"}); err == nil {
		t.Error("feature-name mismatch accepted")
	}
}

func TestDatasetAccessors(t *testing.T) {
	ds := syntheticLinear(100, 1)
	if ds.Len() != 100 || ds.Width() != 3 {
		t.Fatalf("shape %dx%d", ds.Len(), ds.Width())
	}
	pos := 0
	for _, y := range ds.Y {
		pos += y
	}
	if rate := float64(pos) / float64(ds.Len()); rate <= 0.2 || rate >= 0.9 {
		t.Fatalf("positive rate %v looks degenerate", rate)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(1000); got != 1 {
		t.Errorf("Sigmoid(1000) = %v", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Errorf("Sigmoid(-1000) = %v", got)
	}
	if got := Sigmoid(2) + Sigmoid(-2); math.Abs(got-1) > 1e-12 {
		t.Errorf("sigmoid symmetry violated: %v", got)
	}
}

func TestTrainLogisticLearnsSignal(t *testing.T) {
	ds := syntheticLinear(4000, 2)
	m, err := TrainLogistic(ds, LogisticConfig{Epochs: 400, LearningRate: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	// Recovered weights should have the right signs and rough magnitudes.
	if m.W[0] <= 0.5 || m.W[1] >= -0.5 || m.W[2] <= 0 {
		t.Fatalf("weights %v do not match generating signs (+,-,+)", m.W)
	}
	preds := m.PredictAll(ds.X)
	errRate, err := ErrorRate(ds.Y, preds)
	if err != nil {
		t.Fatal(err)
	}
	// Bayes error of this generator is ~0.2; training error must beat chance clearly.
	if errRate > 0.3 {
		t.Fatalf("training error %v too high", errRate)
	}
}

func TestTrainLogisticGeneralizes(t *testing.T) {
	train := syntheticLinear(4000, 3)
	test := syntheticLinear(2000, 99)
	m, err := TrainLogistic(train, LogisticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	preds := m.PredictAll(test.X)
	errRate, _ := ErrorRate(test.Y, preds)
	if errRate > 0.32 {
		t.Fatalf("test error %v too high", errRate)
	}
}

func TestTrainLogisticDeterministic(t *testing.T) {
	ds := syntheticLinear(500, 4)
	m1, _ := TrainLogistic(ds, LogisticConfig{Epochs: 50})
	m2, _ := TrainLogistic(ds, LogisticConfig{Epochs: 50})
	for j := range m1.W {
		if m1.W[j] != m2.W[j] {
			t.Fatal("training not deterministic")
		}
	}
	if m1.B != m2.B {
		t.Fatal("intercept not deterministic")
	}
}

func TestL2ShrinksWeights(t *testing.T) {
	ds := syntheticLinear(1000, 5)
	free, _ := TrainLogistic(ds, LogisticConfig{Epochs: 200})
	ridge, _ := TrainLogistic(ds, LogisticConfig{Epochs: 200, L2: 1.0})
	var nFree, nRidge float64
	for j := range free.W {
		nFree += free.W[j] * free.W[j]
		nRidge += ridge.W[j] * ridge.W[j]
	}
	if nRidge >= nFree {
		t.Fatalf("L2 did not shrink weights: %v vs %v", nRidge, nFree)
	}
}

func TestMomentumAccelerates(t *testing.T) {
	ds := syntheticLinear(1000, 6)
	plain, _ := TrainLogistic(ds, LogisticConfig{Epochs: 40, LearningRate: 0.1})
	heavy, _ := TrainLogistic(ds, LogisticConfig{Epochs: 40, LearningRate: 0.1, Momentum: 0.9})
	if heavy.FinalLoss >= plain.FinalLoss {
		t.Fatalf("momentum did not reduce loss: %v vs %v", heavy.FinalLoss, plain.FinalLoss)
	}
}

func TestLogisticConfigValidation(t *testing.T) {
	ds := syntheticLinear(10, 7)
	bad := []LogisticConfig{
		{LearningRate: -1},
		{Epochs: -5},
		{L2: -0.1},
		{Momentum: 1.5},
		{LearningRate: math.NaN()},
	}
	for _, cfg := range bad {
		if _, err := TrainLogistic(ds, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// numericalGradientCheck compares the analytic gradient of the
// (unregularized) mean NLL at the model's current parameters against
// central finite differences; it returns the maximum absolute deviation.
func numericalGradientCheck(ds Dataset, m *Logistic, h float64) float64 {
	n := float64(ds.Len())
	loss := func(w []float64, b float64) float64 {
		var acc float64
		for i := range ds.X {
			z := b
			for j, x := range ds.X[i] {
				z += w[j] * x
			}
			acc += crossEntropy(Sigmoid(z), ds.Y[i])
		}
		return acc / n
	}
	analytic := make([]float64, len(m.W)+1)
	for i := range ds.X {
		p := Sigmoid(m.score(ds.X[i]))
		diff := p - float64(ds.Y[i])
		for j, x := range ds.X[i] {
			analytic[j] += diff * x / n
		}
		analytic[len(m.W)] += diff / n
	}
	var maxDev float64
	w := append([]float64(nil), m.W...)
	for j := range w {
		w[j] += h
		up := loss(w, m.B)
		w[j] -= 2 * h
		down := loss(w, m.B)
		w[j] += h
		numeric := (up - down) / (2 * h)
		if d := math.Abs(numeric - analytic[j]); d > maxDev {
			maxDev = d
		}
	}
	upB := loss(w, m.B+h)
	downB := loss(w, m.B-h)
	if d := math.Abs((upB-downB)/(2*h) - analytic[len(m.W)]); d > maxDev {
		maxDev = d
	}
	return maxDev
}

// TestGradientCheck verifies the analytic NLL gradient against central
// finite differences at a partially trained point.
func TestGradientCheck(t *testing.T) {
	ds := syntheticLinear(200, 8)
	m, err := TrainLogistic(ds, LogisticConfig{Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if dev := numericalGradientCheck(ds, m, 1e-5); dev > 1e-6 {
		t.Fatalf("gradient deviation %v", dev)
	}
}

func TestGradientCheckAlias(t *testing.T) {
	// numericalGradientCheck must also hold at the zero initialization.
	ds := syntheticLinear(100, 9)
	m := &Logistic{W: make([]float64, ds.Width())}
	if dev := numericalGradientCheck(ds, m, 1e-5); dev > 1e-6 {
		t.Fatalf("gradient deviation at init %v", dev)
	}
}

func TestPredictProbRange(t *testing.T) {
	ds := syntheticLinear(200, 10)
	m, _ := TrainLogistic(ds, LogisticConfig{Epochs: 30})
	for _, row := range ds.X {
		p := m.PredictProb(row)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability %v out of range", p)
		}
	}
	probs := m.PredictProbs(ds.X)
	if len(probs) != ds.Len() {
		t.Fatal("PredictProbs length mismatch")
	}
}
