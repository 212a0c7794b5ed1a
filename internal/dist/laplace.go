package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Laplace is the double-exponential distribution with location Mu and
// scale B, the noise family of both the Laplace privacy mechanism and
// the paper's "noise route" to differential fairness. The zero value is
// not valid; use NewLaplace.
type Laplace struct {
	Mu float64
	B  float64
}

// NewLaplace returns the Laplace(mu, b) distribution. It returns an
// error when b <= 0 or either parameter is not finite.
func NewLaplace(mu, b float64) (Laplace, error) {
	if err := checkFinite("laplace location", mu); err != nil {
		return Laplace{}, err
	}
	if err := checkPositive("laplace scale", b); err != nil {
		return Laplace{}, err
	}
	return Laplace{Mu: mu, B: b}, nil
}

// String describes the distribution for reports.
func (d Laplace) String() string { return fmt.Sprintf("Laplace(mu=%g, b=%g)", d.Mu, d.B) }

// PDF returns the density at x.
func (d Laplace) PDF(x float64) float64 {
	return math.Exp(-math.Abs(x-d.Mu)/d.B) / (2 * d.B)
}

// LogPDF returns the log density at x.
func (d Laplace) LogPDF(x float64) float64 {
	return -math.Abs(x-d.Mu)/d.B - math.Log(2*d.B)
}

// CDF returns P(X <= x).
func (d Laplace) CDF(x float64) float64 {
	if x < d.Mu {
		return 0.5 * math.Exp((x-d.Mu)/d.B)
	}
	return 1 - 0.5*math.Exp(-(x-d.Mu)/d.B)
}

// SurvivalAbove returns the upper tail mass P(X > x), exact in the far
// tail where 1-CDF would cancel.
func (d Laplace) SurvivalAbove(x float64) float64 {
	if x < d.Mu {
		return 1 - 0.5*math.Exp((x-d.Mu)/d.B)
	}
	return 0.5 * math.Exp(-(x-d.Mu)/d.B)
}

// Quantile returns the p-quantile by inversion. Quantile(0) is -Inf and
// Quantile(1) is +Inf; p outside [0, 1] yields NaN.
func (d Laplace) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0.5 {
		return d.Mu + d.B*math.Log(2*p)
	}
	return d.Mu - d.B*math.Log(2*(1-p))
}

// Sample draws one deviate using r.
func (d Laplace) Sample(r *rng.RNG) float64 { return r.Laplace(d.Mu, d.B) }

// batchPDF is the vectorized density kernel used by BatchPDF.
func (d Laplace) batchPDF(xs, dst []float64) {
	inv := 1 / d.B
	norm := 0.5 * inv
	for i, x := range xs {
		dst[i] = norm * math.Exp(-math.Abs(x-d.Mu)*inv)
	}
}
