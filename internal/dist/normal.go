package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Normal is the Gaussian distribution N(Mu, Sigma^2). The zero value is
// not valid; use NewNormal, which rejects non-positive or non-finite
// scale so that downstream tail and quantile queries are always defined.
type Normal struct {
	Mu    float64
	Sigma float64
}

// NewNormal returns the N(mu, sigma^2) distribution. It returns an error
// when sigma <= 0 or either parameter is not finite.
func NewNormal(mu, sigma float64) (Normal, error) {
	if err := checkFinite("normal mean", mu); err != nil {
		return Normal{}, err
	}
	if err := checkPositive("normal sigma", sigma); err != nil {
		return Normal{}, err
	}
	return Normal{Mu: mu, Sigma: sigma}, nil
}

// String describes the distribution for reports.
func (d Normal) String() string { return fmt.Sprintf("Normal(mu=%g, sigma=%g)", d.Mu, d.Sigma) }

// PDF returns the density at x.
func (d Normal) PDF(x float64) float64 {
	z := (x - d.Mu) / d.Sigma
	return invSqrt2Pi / d.Sigma * math.Exp(-0.5*z*z)
}

// LogPDF returns the log density at x.
func (d Normal) LogPDF(x float64) float64 {
	z := (x - d.Mu) / d.Sigma
	return -0.5*z*z - math.Log(d.Sigma) - 0.5*log2Pi
}

// CDF returns P(X <= x) = Phi((x-mu)/sigma).
func (d Normal) CDF(x float64) float64 {
	z := (x - d.Mu) / d.Sigma
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// SurvivalAbove returns the upper tail mass P(X > x), computed with Erfc
// directly so far tails keep full relative precision (1-CDF would lose
// it to cancellation).
func (d Normal) SurvivalAbove(x float64) float64 {
	z := (x - d.Mu) / d.Sigma
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// Quantile returns the p-quantile. Quantile(0) is -Inf and Quantile(1)
// is +Inf; p outside [0, 1] yields NaN.
func (d Normal) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	return d.Mu + d.Sigma*math.Sqrt2*math.Erfinv(2*p-1)
}

// Sample draws one deviate using r.
func (d Normal) Sample(r *rng.RNG) float64 { return r.Normal(d.Mu, d.Sigma) }

// batchPDF is the vectorized density kernel used by BatchPDF: the
// per-point division and normalizing constant are hoisted out of the
// loop, which is what makes the batch path beat the scalar one.
func (d Normal) batchPDF(xs, dst []float64) {
	inv := 1 / d.Sigma
	norm := invSqrt2Pi * inv
	for i, x := range xs {
		z := (x - d.Mu) * inv
		dst[i] = norm * math.Exp(-0.5*z*z)
	}
}
