package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

// --- Constructor validation ---

func TestNewNormalValidation(t *testing.T) {
	for _, sigma := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewNormal(0, sigma); err == nil {
			t.Errorf("NewNormal accepted sigma=%v", sigma)
		}
	}
	if _, err := NewNormal(math.NaN(), 1); err == nil {
		t.Error("NewNormal accepted NaN mean")
	}
	if _, err := NewNormal(3, 2); err != nil {
		t.Errorf("NewNormal rejected valid parameters: %v", err)
	}
}

func TestNewLaplaceValidation(t *testing.T) {
	for _, b := range []float64{0, -0.5, math.NaN(), math.Inf(1)} {
		if _, err := NewLaplace(0, b); err == nil {
			t.Errorf("NewLaplace accepted b=%v", b)
		}
	}
	if _, err := NewLaplace(math.Inf(-1), 1); err == nil {
		t.Error("NewLaplace accepted infinite location")
	}
	if _, err := NewLaplace(-1, 2.5); err != nil {
		t.Errorf("NewLaplace rejected valid parameters: %v", err)
	}
}

// --- Golden closed-form values ---

func TestNormalGoldenValues(t *testing.T) {
	std := Normal{Mu: 0, Sigma: 1}
	approx(t, "std.PDF(0)", std.PDF(0), 0.3989422804014327, 1e-15)
	approx(t, "std.PDF(1)", std.PDF(1), 0.24197072451914337, 1e-15)
	approx(t, "std.LogPDF(0)", std.LogPDF(0), -0.9189385332046727, 1e-14)
	approx(t, "std.CDF(0)", std.CDF(0), 0.5, 1e-15)
	approx(t, "std.CDF(1)", std.CDF(1), 0.8413447460685429, 1e-14)
	approx(t, "std.CDF(1.96)", std.CDF(1.96), 0.9750021048517795, 1e-14)
	approx(t, "std.SurvivalAbove(1)", std.SurvivalAbove(1), 1-0.8413447460685429, 1e-14)
	approx(t, "std.Quantile(0.975)", std.Quantile(0.975), 1.959963984540054, 1e-12)

	d := Normal{Mu: 10, Sigma: 2}
	approx(t, "N(10,2).PDF(10)", d.PDF(10), 0.19947114020071635, 1e-15)
	approx(t, "N(10,2).CDF(10)", d.CDF(10), 0.5, 1e-15)
	approx(t, "N(10,2).Quantile(0.5)", d.Quantile(0.5), 10, 1e-12)
	// Deep tail: survival must keep relative precision where 1-CDF cannot.
	approx(t, "std.SurvivalAbove(10)", std.SurvivalAbove(10), 7.619853024160527e-24, 1e-37)
}

func TestLaplaceGoldenValues(t *testing.T) {
	std := Laplace{Mu: 0, B: 1}
	approx(t, "Lap(0,1).PDF(0)", std.PDF(0), 0.5, 1e-15)
	approx(t, "Lap(0,1).CDF(0)", std.CDF(0), 0.5, 1e-15)
	approx(t, "Lap(0,1).CDF(1)", std.CDF(1), 1-0.5*math.Exp(-1), 1e-15)
	approx(t, "Lap(0,1).SurvivalAbove(1)", std.SurvivalAbove(1), 0.5*math.Exp(-1), 1e-16)
	approx(t, "Lap(0,1).Quantile(0.75)", std.Quantile(0.75), math.Ln2, 1e-15)
	approx(t, "Lap(0,1).LogPDF(3)", std.LogPDF(3), -3-math.Log(2), 1e-14)

	d := Laplace{Mu: 2, B: 3}
	approx(t, "Lap(2,3).PDF(2)", d.PDF(2), 1.0/6, 1e-16)
	approx(t, "Lap(2,3).Quantile(0.5)", d.Quantile(0.5), 2, 1e-12)
}

// --- Shared-contract properties ---

func continuousDists() map[string]Dist {
	return map[string]Dist{
		"normal":  Normal{Mu: 3, Sigma: 2},
		"laplace": Laplace{Mu: -1, B: 1.5},
	}
}

// TestQuantileCDFRoundTrip is the property the ISSUE pins down:
// Quantile(CDF(x)) ≈ x across the support, and CDF(Quantile(p)) ≈ p
// across probabilities.
func TestQuantileCDFRoundTrip(t *testing.T) {
	for name, d := range continuousDists() {
		for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
			x := d.Quantile(p)
			if back := d.CDF(x); math.Abs(back-p) > 1e-9 {
				t.Errorf("%s: CDF(Quantile(%v)) = %v", name, p, back)
			}
		}
		lo, hi := d.Quantile(0.01), d.Quantile(0.99)
		for i := 0; i <= 40; i++ {
			x := lo + float64(i)/40*(hi-lo)
			if back := d.Quantile(d.CDF(x)); math.Abs(back-x) > 1e-6*(1+math.Abs(x)) {
				t.Errorf("%s: Quantile(CDF(%v)) = %v", name, x, back)
			}
		}
	}
}

func TestSurvivalComplementsCDF(t *testing.T) {
	for name, d := range continuousDists() {
		for i := -20; i <= 20; i++ {
			x := float64(i) / 2
			if s := d.CDF(x) + d.SurvivalAbove(x); math.Abs(s-1) > 1e-12 {
				t.Errorf("%s: CDF+Survival at %v = %v", name, x, s)
			}
		}
	}
}

func TestLogPDFMatchesPDF(t *testing.T) {
	for name, d := range continuousDists() {
		for i := -10; i <= 10; i++ {
			x := float64(i) / 2
			p := d.PDF(x)
			if p == 0 {
				if lp := d.LogPDF(x); !math.IsInf(lp, -1) {
					t.Errorf("%s: LogPDF(%v) = %v where PDF is 0", name, x, lp)
				}
				continue
			}
			if lp := d.LogPDF(x); math.Abs(lp-math.Log(p)) > 1e-12 {
				t.Errorf("%s: LogPDF(%v) = %v, log(PDF) = %v", name, x, lp, math.Log(p))
			}
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	for name, d := range continuousDists() {
		prev := math.Inf(-1)
		for i := -30; i <= 30; i++ {
			x := float64(i) / 3
			c := d.CDF(x)
			if c < prev-1e-15 {
				t.Fatalf("%s: CDF decreased at %v: %v after %v", name, x, c, prev)
			}
			if c < 0 || c > 1 {
				t.Fatalf("%s: CDF(%v) = %v outside [0,1]", name, x, c)
			}
			prev = c
		}
	}
}

func TestQuantileOutOfRangeIsNaN(t *testing.T) {
	dists := continuousDists()
	for name, d := range dists {
		for _, p := range []float64{-0.1, 1.1, math.NaN()} {
			if q := d.Quantile(p); !math.IsNaN(q) {
				t.Errorf("%s: Quantile(%v) = %v, want NaN", name, p, q)
			}
		}
	}
}

// --- Sampling moments ---

func TestSampleMoments(t *testing.T) {
	const n = 50000
	cases := []struct {
		name     string
		d        Dist
		mean, sd float64
	}{
		{"normal", Normal{Mu: 5, Sigma: 2}, 5, 2},
		{"laplace", Laplace{Mu: 0, B: 1}, 0, math.Sqrt2},
	}
	for _, c := range cases {
		r := rng.New(42)
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := c.d.Sample(r)
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		sd := math.Sqrt(sumSq/n - mean*mean)
		if math.Abs(mean-c.mean) > 6*c.sd/math.Sqrt(n) {
			t.Errorf("%s: sample mean %v, want %v", c.name, mean, c.mean)
		}
		if math.Abs(sd-c.sd) > 0.05*c.sd {
			t.Errorf("%s: sample sd %v, want %v", c.name, sd, c.sd)
		}
	}
}
