package classify

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// biasedDataset builds a two-group dataset where group 1 has a higher
// base rate and a correlated proxy feature, so an unconstrained
// classifier produces disparate positive rates.
func biasedDataset(n int, seed uint64) (Dataset, []int) {
	r := rng.New(seed)
	x := make([][]float64, n)
	y := make([]int, n)
	groups := make([]int, n)
	for i := range x {
		g := r.Intn(2)
		groups[i] = g
		proxy := r.NormFloat64() + 1.5*float64(g) // correlated with group
		signal := r.NormFloat64()
		z := -1.0 + 1.2*proxy + 0.8*signal
		if r.Float64() < Sigmoid(z) {
			y[i] = 1
		}
		x[i] = []float64{proxy, signal}
	}
	ds, err := NewDataset(x, y, []string{"proxy", "signal"})
	if err != nil {
		panic(err)
	}
	return ds, groups
}

func TestFairLogisticLambdaZeroMatchesPlain(t *testing.T) {
	ds, groups := biasedDataset(800, 21)
	cfg := LogisticConfig{Epochs: 100, LearningRate: 0.4}
	plain, err := TrainLogistic(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fair, err := TrainFairLogistic(ds, FairLogisticConfig{
		LogisticConfig: cfg, Lambda: 0, Groups: groups, NumGroups: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := range plain.W {
		if math.Abs(plain.W[j]-fair.W[j]) > 1e-9 {
			t.Fatalf("lambda=0 weights differ: %v vs %v", plain.W, fair.W)
		}
	}
	if math.Abs(plain.B-fair.B) > 1e-9 {
		t.Fatal("lambda=0 intercepts differ")
	}
}

// TestFairnessPenaltyReducesSoftEpsilon is the core behavioural check of
// the future-work regularizer: increasing λ monotonically (in the loose,
// end-to-end sense) trades accuracy for a lower DF surrogate ε.
func TestFairnessPenaltyReducesSoftEpsilon(t *testing.T) {
	ds, groups := biasedDataset(2000, 22)
	cfg := LogisticConfig{Epochs: 250, LearningRate: 0.4}
	softEps := func(lambda float64) (float64, float64) {
		m, err := TrainFairLogistic(ds, FairLogisticConfig{
			LogisticConfig: cfg, Lambda: lambda, Groups: groups, NumGroups: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		probs := m.PredictProbs(ds.X)
		rates, sizes, err := GroupPositiveRates(probs, groups, 2)
		if err != nil {
			t.Fatal(err)
		}
		preds := m.PredictAll(ds.X)
		errRate, _ := ErrorRate(ds.Y, preds)
		return SoftEpsilon(rates, sizes), errRate
	}
	eps0, err0 := softEps(0)
	epsHi, errHi := softEps(5)
	if epsHi >= eps0 {
		t.Fatalf("lambda=5 did not reduce soft epsilon: %v vs %v", epsHi, eps0)
	}
	if epsHi > 0.5*eps0 {
		t.Logf("note: soft epsilon only dropped from %v to %v", eps0, epsHi)
	}
	// The fairness gain costs some accuracy; the model must still beat chance.
	if errHi > 0.45 {
		t.Fatalf("fair model error %v is no better than chance", errHi)
	}
	_ = err0
}

func TestFairLogisticPenaltyGradient(t *testing.T) {
	// Finite-difference check of the full fair objective's gradient at a
	// random point: train one epoch with tiny LR and compare the move
	// against the numeric gradient of NLL + λ·penalty.
	ds, groups := biasedDataset(60, 23)
	const lambda = 2.0
	objective := func(w []float64, b float64) float64 {
		n := float64(ds.Len())
		var nll float64
		sum := make([]float64, 2)
		cnt := make([]float64, 2)
		for i := range ds.X {
			z := b
			for j, x := range ds.X[i] {
				z += w[j] * x
			}
			p := Sigmoid(z)
			nll += crossEntropy(p, ds.Y[i])
			sum[groups[i]] += p
			cnt[groups[i]]++
		}
		nll /= n
		// Smoothed group means with alpha=1, one populated pair.
		p0 := (sum[0] + 1) / (cnt[0] + 2)
		p1 := (sum[1] + 1) / (cnt[1] + 2)
		dPos := math.Log(p0) - math.Log(p1)
		dNeg := math.Log(1-p0) - math.Log(1-p1)
		return nll + lambda*(dPos*dPos+dNeg*dNeg)
	}
	// One gradient step from zero with LR η moves θ to −η∇J(0).
	const eta = 1e-3
	m, err := TrainFairLogistic(ds, FairLogisticConfig{
		LogisticConfig: LogisticConfig{Epochs: 1, LearningRate: eta},
		Lambda:         lambda, Groups: groups, NumGroups: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-5
	w := make([]float64, ds.Width())
	for j := range w {
		w[j] += h
		up := objective(w, 0)
		w[j] -= 2 * h
		down := objective(w, 0)
		w[j] += h
		numericGrad := (up - down) / (2 * h)
		analyticStep := m.W[j] // = -eta * analytic gradient
		if math.Abs(analyticStep+eta*numericGrad) > 1e-7 {
			t.Fatalf("weight %d: step %v vs -eta*numeric %v", j, analyticStep, -eta*numericGrad)
		}
	}
	upB := objective(w, h)
	downB := objective(w, -h)
	numericGradB := (upB - downB) / (2 * h)
	if math.Abs(m.B+eta*numericGradB) > 1e-7 {
		t.Fatalf("intercept: step %v vs -eta*numeric %v", m.B, -eta*numericGradB)
	}
}

func TestFairLogisticValidation(t *testing.T) {
	ds, groups := biasedDataset(50, 24)
	base := LogisticConfig{Epochs: 5}
	cases := []FairLogisticConfig{
		{LogisticConfig: base, Lambda: -1, Groups: groups, NumGroups: 2},
		{LogisticConfig: base, Lambda: math.NaN(), Groups: groups, NumGroups: 2},
		{LogisticConfig: base, Lambda: 1, Groups: groups[:10], NumGroups: 2},
		{LogisticConfig: base, Lambda: 1, Groups: groups, NumGroups: 1},
	}
	for i, cfg := range cases {
		if _, err := TrainFairLogistic(ds, cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	badGroups := append([]int(nil), groups...)
	badGroups[0] = 9
	if _, err := TrainFairLogistic(ds, FairLogisticConfig{
		LogisticConfig: base, Lambda: 1, Groups: badGroups, NumGroups: 2,
	}); err == nil {
		t.Error("out-of-range group accepted")
	}
}

func TestGroupPositiveRates(t *testing.T) {
	probs := []float64{0.2, 0.4, 0.9}
	groups := []int{0, 0, 1}
	rates, sizes, err := GroupPositiveRates(probs, groups, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[0]-0.3) > 1e-12 || rates[1] != 0.9 {
		t.Fatalf("rates = %v", rates)
	}
	if sizes[0] != 2 || sizes[1] != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
	if _, _, err := GroupPositiveRates(probs, groups[:2], 2); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := GroupPositiveRates(probs, groups, 0); err == nil {
		t.Error("zero groups accepted")
	}
	if _, _, err := GroupPositiveRates(probs, []int{0, 0, 5}, 2); err == nil {
		t.Error("out-of-range group accepted")
	}
}

func TestSoftEpsilon(t *testing.T) {
	// Equal rates → 0.
	if got := SoftEpsilon([]float64{0.4, 0.4}, []float64{5, 5}); got != 0 {
		t.Fatalf("equal rates epsilon = %v", got)
	}
	// Rates 0.6 vs 0.2: max(ln 3, ln 2) = ln 3 from the positive outcome.
	got := SoftEpsilon([]float64{0.6, 0.2}, []float64{5, 5})
	if math.Abs(got-math.Log(3)) > 1e-12 {
		t.Fatalf("epsilon = %v, want ln 3", got)
	}
	// Zero-size groups are skipped.
	if got := SoftEpsilon([]float64{0.6, 0}, []float64{5, 0}); got != 0 {
		t.Fatalf("zero-size group contaminated epsilon: %v", got)
	}
}
