// Package dist is the probability-distribution substrate shared by the
// noise mechanisms (internal/mechanism) and the experiment harness
// (internal/experiments).
//
// Every distribution is a small immutable value constructed through a
// validating New* function; once constructed, every method is total — no
// method on a validated distribution panics or returns an error. The
// package provides the two continuous families the paper's mechanisms
// need: Normal for the Figure 2 threshold mechanism and Laplace for the
// noise route to differential fairness.
//
// For hot paths that evaluate a density over many points (the Figure 2
// density sweep, the noisy-threshold quadrature), BatchPDF and
// DensityGrid provide a vectorized evaluation path with per-family
// kernels; see batch.go.
package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Dist is the common contract of every distribution in this package.
//
// CDF and SurvivalAbove are complements: CDF(x) + SurvivalAbove(x) == 1
// up to rounding. Quantile is the inverse of CDF on (0, 1); callers may
// pass 0 or 1 and receive the support endpoints (possibly ±Inf), while
// arguments outside [0, 1] yield NaN. Sample draws from the repository's
// deterministic generator so experiment outputs are reproducible.
type Dist interface {
	// PDF returns the density at x.
	PDF(x float64) float64
	// LogPDF returns the log density at x (-Inf where the density is 0).
	LogPDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// SurvivalAbove returns the upper tail mass P(X > x).
	SurvivalAbove(x float64) float64
	// Quantile returns the smallest x with CDF(x) >= p.
	Quantile(p float64) float64
	// Sample draws one deviate using r.
	Sample(r *rng.RNG) float64

	// batchPDF writes PDF(xs[i]) into dst[i], the family's kernel behind
	// BatchPDF. It is unexported, so every Dist is one of this package's
	// families.
	batchPDF(xs, dst []float64)
}

// invSqrt2Pi is 1/sqrt(2*pi), the normalizing constant of the standard
// normal density.
const invSqrt2Pi = 0.3989422804014326779399460599343818684758586311649346576659406529

// log2Pi is log(2*pi).
const log2Pi = 1.8378770664093454835606594728112352797227949472755668256343030809

// checkFinite returns an error naming the parameter when v is NaN or ±Inf.
func checkFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("dist: %s must be finite, got %v", name, v)
	}
	return nil
}

// checkPositive returns an error naming the parameter when v is not a
// finite positive number.
func checkPositive(name string, v float64) error {
	if err := checkFinite(name, v); err != nil {
		return err
	}
	if v <= 0 {
		return fmt.Errorf("dist: %s must be positive, got %v", name, v)
	}
	return nil
}
