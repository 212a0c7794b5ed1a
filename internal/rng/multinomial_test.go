package rng

import (
	"math"
	"testing"
)

// binomialPMF returns the exact Binomial(n, p) probability mass function.
func binomialPMF(n int, p float64) []float64 {
	pmf := make([]float64, n+1)
	// Iterate the recurrence from the log of P(0) for numerical range.
	logP := float64(n) * math.Log1p(-p)
	pmf[0] = math.Exp(logP)
	for k := 1; k <= n; k++ {
		logP += math.Log(float64(n-k+1)) - math.Log(float64(k)) +
			math.Log(p) - math.Log1p(-p)
		pmf[k] = math.Exp(logP)
	}
	return pmf
}

// chiSquare pools low-expectation bins (tails) so every expected count is
// at least 5, then returns the statistic and degrees of freedom.
func chiSquare(observed []float64, expected []float64) (stat float64, df int) {
	var obsPool, expPool float64
	flush := func() {
		if expPool > 0 {
			d := obsPool - expPool
			stat += d * d / expPool
			df++
		}
		obsPool, expPool = 0, 0
	}
	for i := range observed {
		obsPool += observed[i]
		expPool += expected[i]
		if expPool >= 5 {
			flush()
		}
	}
	flush() // remaining tail mass pools into the final bin
	return stat, df - 1
}

// chiSquareCritical is the upper critical value at significance 0.001 via
// the Wilson–Hilferty approximation (z_{0.999} = 3.0902).
func chiSquareCritical(df int) float64 {
	d := float64(df)
	z := 3.0902
	t := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * t * t * t
}

// TestBinomialChiSquare checks goodness of fit against the exact pmf in
// every sampler regime: CDF inversion (n·p < 10), BTRS from the
// boundary up, the mirrored p > 1/2 path, and the split a bootstrap
// replicate makes of a census-sized table over 320 cells. Each case
// also checks that it reaches the sampler it is named for. The BTRS
// cases pin its acceptance step: a slip in the log-ratio bound (a
// missing log, a wrong Stirling tail) changes the accepted mass and
// fails them.
func TestBinomialChiSquare(t *testing.T) {
	cases := []struct {
		name string
		n    int
		p    float64
		btrs bool
	}{
		{"inversion-np3", 30, 0.1, false},                  // n·p = 3
		{"inversion-np9.5", 1900, 0.005, false},            // n·p = 9.5
		{"btrs-boundary-np10", 2000, 0.005, true},          // n·p = 10
		{"btrs-moderate", 400, 0.25, true},                 // n·p = 100
		{"btrs-large", 5000, 0.4, true},                    // n·p = 2000
		{"btrs-p-half", 1000, 0.5, true},                   // n·p = 500
		{"btrs-mirrored", 300, 0.8, true},                  // n·(1−p) = 60
		{"btrs-bootstrap-split", 200_000, 1.0 / 320, true}, // n·p = 625
	}
	const draws = 200000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if btrs := float64(tc.n)*math.Min(tc.p, 1-tc.p) >= btrsThreshold; btrs != tc.btrs {
				t.Fatalf("Binomial(%d, %v) reaches BTRS = %v, want %v", tc.n, tc.p, btrs, tc.btrs)
			}
			r := New(12345)
			obs := make([]float64, tc.n+1)
			for i := 0; i < draws; i++ {
				k := r.Binomial(tc.n, tc.p)
				if k < 0 || k > tc.n {
					t.Fatalf("Binomial(%d,%v) = %d out of range", tc.n, tc.p, k)
				}
				obs[k]++
			}
			pmf := binomialPMF(tc.n, tc.p)
			exp := make([]float64, tc.n+1)
			for k := range exp {
				exp[k] = pmf[k] * draws
			}
			stat, df := chiSquare(obs, exp)
			if crit := chiSquareCritical(df); stat > crit {
				t.Fatalf("chi-square %v exceeds critical %v (df=%d)", stat, crit, df)
			}
		})
	}
}

// TestStirlingTail checks the log-factorial remainder behind BTRS's
// acceptance step against math.Lgamma, across the table and the series.
func TestStirlingTail(t *testing.T) {
	for k := 0; k <= 2000; k++ {
		kf := float64(k)
		lg, _ := math.Lgamma(kf + 1)
		want := lg - ((kf+0.5)*math.Log(kf+1) - (kf + 1) + 0.5*math.Log(2*math.Pi))
		if got := stirlingTail(kf); math.Abs(got-want) > 1e-10 {
			t.Fatalf("stirlingTail(%d) = %v, want %v", k, got, want)
		}
	}
}

// TestBinomialLogRatio checks BTRS's log-ratio ln f(k)/f(m) against the
// pmf's exact logs from math.Lgamma, from tiny to bootstrap-sized n and
// across the support.
func TestBinomialLogRatio(t *testing.T) {
	logPMF := func(n, p, k float64) float64 {
		ln, _ := math.Lgamma(n + 1)
		lk, _ := math.Lgamma(k + 1)
		lnk, _ := math.Lgamma(n - k + 1)
		return ln - lk - lnk + k*math.Log(p) + (n-k)*math.Log1p(-p)
	}
	for _, tc := range []struct{ n, p float64 }{
		{40, 0.25}, {1000, 0.5}, {5000, 0.4}, {200_000, 1.0 / 320},
	} {
		m := math.Floor((tc.n + 1) * tc.p)
		for _, k := range []float64{0, 1, m - 7, m, m + 3, 2 * m, tc.n} {
			if k < 0 || k > tc.n {
				continue
			}
			want := logPMF(tc.n, tc.p, k) - logPMF(tc.n, tc.p, m)
			if got := binomialLogRatio(tc.n, tc.p, k); math.Abs(got-want) > 1e-8*math.Max(1, math.Abs(want)) {
				t.Errorf("binomialLogRatio(%v, %v, %v) = %v, want %v", tc.n, tc.p, k, got, want)
			}
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(1)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d", got)
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Binomial accepted p=%v", bad)
				}
			}()
			r.Binomial(10, bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Binomial accepted n=-1")
			}
		}()
		r.Binomial(-1, 0.5)
	}()
}

// TestMultinomialChiSquare is the goodness-of-fit test of the
// conditional-binomial multinomial against the alias-sampling baseline:
// pooled category totals from both samplers must match the expected cell
// masses under the same chi-square threshold.
func TestMultinomialChiSquare(t *testing.T) {
	weights := []float64{5, 0, 1, 12, 0.5, 3, 7, 0, 2, 9, 0.25, 4}
	var total float64
	for _, w := range weights {
		total += w
	}
	const (
		vectors = 2000
		perVec  = 500
	)
	exp := make([]float64, len(weights))
	for i, w := range weights {
		exp[i] = float64(vectors) * perVec * w / total
	}

	// Conditional-binomial splitting path.
	r := New(99)
	dst := make([]float64, len(weights))
	multiTotals := make([]float64, len(weights))
	for v := 0; v < vectors; v++ {
		r.Multinomial(dst, perVec, weights)
		var sum float64
		for i, c := range dst {
			if c < 0 || c != math.Trunc(c) {
				t.Fatalf("cell %d got non-integral count %v", i, c)
			}
			if weights[i] == 0 && c != 0 {
				t.Fatalf("zero-weight cell %d received %v", i, c)
			}
			multiTotals[i] += c
			sum += c
		}
		if sum != perVec {
			t.Fatalf("vector sums to %v, want %d", sum, perVec)
		}
	}

	// Alias-sampling baseline: the same total number of category draws.
	ra := New(99)
	alias := NewAlias(weights)
	aliasTotals := make([]float64, len(weights))
	for i := 0; i < vectors*perVec; i++ {
		aliasTotals[alias.Sample(ra)]++
	}

	for name, obs := range map[string][]float64{
		"multinomial": multiTotals,
		"alias":       aliasTotals,
	} {
		stat, df := chiSquare(obs, exp)
		if crit := chiSquareCritical(df); stat > crit {
			t.Fatalf("%s chi-square %v exceeds critical %v (df=%d)", name, stat, crit, df)
		}
	}
}

func TestMultinomialValidation(t *testing.T) {
	r := New(1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("length mismatch", func() { r.Multinomial(make([]float64, 2), 5, []float64{1, 2, 3}) })
	mustPanic("empty", func() { r.Multinomial(nil, 5, nil) })
	mustPanic("negative n", func() { r.Multinomial(make([]float64, 2), -1, []float64{1, 1}) })
	mustPanic("negative weight", func() { r.Multinomial(make([]float64, 2), 5, []float64{1, -1}) })
	mustPanic("NaN weight", func() { r.Multinomial(make([]float64, 2), 5, []float64{1, math.NaN()}) })
	mustPanic("zero total", func() { r.Multinomial(make([]float64, 2), 5, []float64{0, 0}) })

	// n = 0 is legal and zeroes dst.
	dst := []float64{7, 7}
	r.Multinomial(dst, 0, []float64{1, 1})
	if dst[0] != 0 || dst[1] != 0 {
		t.Errorf("n=0 left dst = %v", dst)
	}
}

func TestSubstreams(t *testing.T) {
	a := NewStream(7, 3)
	b := NewStream(7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, stream) diverged")
		}
	}
	// Distinct streams of the same seed must differ immediately.
	c := NewStream(7, 4)
	d := NewStream(7, 5)
	same := 0
	for i := 0; i < 16; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent substreams collided on %d of 16 draws", same)
	}

	// A re-seeded generator must be bit-identical to a freshly
	// constructed one, also for NormFloat64, which draws a variable
	// number of uniforms per deviate.
	e := NewStream(11, 0)
	e.NormFloat64()
	e.SeedStream(11, 9)
	f := NewStream(11, 9)
	for i := 0; i < 8; i++ {
		if e.NormFloat64() != f.NormFloat64() {
			t.Fatal("SeedStream did not reset the normal stream")
		}
	}
}
