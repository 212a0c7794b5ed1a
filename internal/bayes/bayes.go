// Package bayes implements the Bayesian estimation options the paper
// sketches for differential fairness: training a probabilistic model on
// the data and letting Θ be a MAP estimate, a posterior predictive
// distribution, or a set of posterior samples / a credible region
// (Section 3 footnote 2 and the future-work agenda of Section 8).
//
// The model is the conjugate Dirichlet-multinomial over outcomes given
// each intersectional group: with a symmetric Dirichlet(α) prior the
// posterior over P(·|s) is Dirichlet(N_{·,s} + α), whose posterior
// predictive mean is exactly the smoothed estimator of Eq. 7.
//
// Posterior draws run on the same parallel engine as the bootstrap
// (internal/par): sample i always uses RNG substream (seed, i) and lands
// in slot i, so summaries are bit-identical regardless of GOMAXPROCS, and
// MetricCredible reuses one pooled CPT buffer per worker instead of
// materializing every sampled θ. ε and every other requested metric
// share one draw per sample, and core.EvalMetrics scores them all on it:
// one validated scan per table, and Eval only for metrics without an
// extrema form.
package bayes

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
)

// DirichletMultinomial is the conjugate model of outcome counts per
// group.
type DirichletMultinomial struct {
	counts *core.Counts
	alpha  float64
}

// NewDirichletMultinomial wraps counts with a symmetric Dirichlet prior
// of per-outcome pseudo-count alpha > 0.
func NewDirichletMultinomial(counts *core.Counts, alpha float64) (*DirichletMultinomial, error) {
	if counts == nil {
		return nil, fmt.Errorf("bayes: nil counts")
	}
	if !(alpha > 0) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("bayes: alpha must be positive and finite, got %v", alpha)
	}
	return &DirichletMultinomial{counts: counts, alpha: alpha}, nil
}

// PosteriorPredictive returns the posterior-predictive CPT, which equals
// the Eq. 7 smoothed estimator. Groups with no observations receive the
// prior predictive (uniform) when includeEmpty is true.
func (m *DirichletMultinomial) PosteriorPredictive(includeEmpty bool) (*core.CPT, error) {
	return m.counts.Smoothed(m.alpha, includeEmpty)
}

// posteriorParams precomputes, once per call, the per-group posterior
// Dirichlet concentrations N_{·,s} + α and group totals shared (read-only)
// by every parallel sample.
func (m *DirichletMultinomial) posteriorParams() (alphaPost []float64, groupTotals []float64) {
	space := m.counts.Space()
	k := m.counts.NumOutcomes()
	alphaPost = make([]float64, space.Size()*k)
	groupTotals = make([]float64, space.Size())
	for g := 0; g < space.Size(); g++ {
		groupTotals[g] = m.counts.GroupTotal(g)
		for y := 0; y < k; y++ {
			alphaPost[g*k+y] = m.counts.N(g, y) + m.alpha
		}
	}
	return alphaPost, groupTotals
}

// sampleInto fills cpt with one posterior draw using the given generator:
// for each supported group, P(·|s) ~ Dirichlet(N_{·,s} + α).
func sampleInto(cpt *core.CPT, r *rng.RNG, probs []float64, alphaPost, groupTotals []float64) error {
	k := len(probs)
	for g := range groupTotals {
		ns := groupTotals[g]
		if ns <= 0 {
			continue
		}
		r.Dirichlet(probs, alphaPost[g*k:(g+1)*k])
		if err := cpt.SetRow(g, ns, probs...); err != nil {
			return err
		}
	}
	return nil
}

// SamplePosterior draws n CPTs from the posterior: for each supported
// group, P(·|s) ~ Dirichlet(N_{·,s} + α). The samples form a finite
// approximation of the credible set Θ; core.FrameworkEpsilon over them is
// the "Θ as a set of plausible distributions" reading of Definition 3.1.
// Sample i is drawn from RNG substream (seed, i), so the returned set is
// deterministic for a fixed r regardless of GOMAXPROCS. ctx must be
// non-nil and cancels the draw cooperatively.
func (m *DirichletMultinomial) SamplePosterior(ctx context.Context, n int, r *rng.RNG) ([]*core.CPT, error) {
	return m.samplePosterior(ctx, n, r, 0)
}

func (m *DirichletMultinomial) samplePosterior(ctx context.Context, n int, r *rng.RNG, workers int) ([]*core.CPT, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bayes: need n > 0 samples, got %d", n)
	}
	space := m.counts.Space()
	outcomes := m.counts.Outcomes()
	k := len(outcomes)
	alphaPost, groupTotals := m.posteriorParams()
	base := r.Uint64()

	type scratch struct {
		rng   *rng.RNG
		probs []float64
	}
	out := make([]*core.CPT, n)
	err := par.DoCtx(ctx, workers, n, func() *scratch {
		return &scratch{rng: rng.New(0), probs: make([]float64, k)}
	}, func(s *scratch, i int) error {
		cpt, err := core.NewCPT(space, outcomes)
		if err != nil {
			return err
		}
		s.rng.SeedStream(base, uint64(i))
		if err := sampleInto(cpt, s.rng, s.probs, alphaPost, groupTotals); err != nil {
			return err
		}
		out[i] = cpt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EpsilonPosterior summarizes the posterior distribution of ε: point
// estimates and a central credible interval.
type EpsilonPosterior struct {
	// Mean is the posterior mean of ε over the samples.
	Mean float64
	// Median is the posterior median.
	Median float64
	// Lo and Hi bound the central credible interval at the requested
	// level.
	Lo, Hi float64
	// Level is the credible level, e.g. 0.95.
	Level float64
	// Samples holds the sorted per-sample ε values.
	Samples []float64
	// Sup is the supremum over samples: ε of the sampled Θ as a
	// framework (Definition 3.1 with Θ = the credible set).
	Sup float64
}

// EpsilonCredible draws n posterior samples and returns the posterior
// summary of ε at the given credible level (in (0,1)). Unlike
// SamplePosterior it never materializes the sampled CPTs: each worker
// reuses one pooled CPT buffer across all samples it evaluates, so the
// steady-state loop is allocation-free. Results are deterministic for a
// fixed r regardless of both GOMAXPROCS and workers (0 = one per CPU).
// ctx must be non-nil: when it is canceled mid-run the workers stop
// claiming samples and the call returns ctx.Err() promptly instead of a
// summary.
func (m *DirichletMultinomial) EpsilonCredible(ctx context.Context, n int, level float64, r *rng.RNG, workers int) (EpsilonPosterior, error) {
	posts, err := m.MetricCredible(ctx, []core.Metric{core.DFEpsilon}, n, level, r, workers)
	if err != nil {
		return EpsilonPosterior{}, err
	}
	return posts[0], nil
}

// MetricCredible is EpsilonCredible for any number of core.Metric values
// at once: each posterior sample θ is drawn once into the worker's
// pooled CPT, then core.EvalMetrics scores every metric on it, so n
// samples cost n draws plus one validated scan per table, and Eval only
// for metrics without an extrema form. It returns one summary per
// metric, in the order of metrics; an error from any metric fails the
// whole call. Sup is the most-unfair value over the samples under
// each metric's orientation — the framework reading of Definition 3.1
// generalized (for ε it is the supremum). Every summary is independent
// of GOMAXPROCS, workers and the other metrics requested alongside it,
// and equals the summary a one-metric call with an identically-seeded
// RNG returns.
func (m *DirichletMultinomial) MetricCredible(ctx context.Context, metrics []core.Metric, n int, level float64, r *rng.RNG, workers int) ([]EpsilonPosterior, error) {
	if len(metrics) == 0 {
		return nil, fmt.Errorf("bayes: no metrics to summarize")
	}
	if !(level > 0 && level < 1) {
		return nil, fmt.Errorf("bayes: credible level %v outside (0,1)", level)
	}
	if n <= 0 {
		return nil, fmt.Errorf("bayes: need n > 0 samples, got %d", n)
	}
	space := m.counts.Space()
	outcomes := m.counts.Outcomes()
	k := len(outcomes)
	alphaPost, groupTotals := m.posteriorParams()
	base := r.Uint64()

	type scratch struct {
		rng   *rng.RNG
		probs []float64
		cpt   *core.CPT
		x     core.RateExtrema
		res   []core.MetricResult
	}
	// vals[j*n+i] is metric j's value on sample i.
	vals := make([]float64, len(metrics)*n)
	err := par.DoCtx(ctx, workers, n, func() *scratch {
		return &scratch{
			rng:   rng.New(0),
			probs: make([]float64, k),
			cpt:   core.MustCPT(space, outcomes),
			x:     core.NewRateExtrema(k),
			res:   make([]core.MetricResult, len(metrics)),
		}
	}, func(s *scratch, i int) error {
		s.rng.SeedStream(base, uint64(i))
		if err := sampleInto(s.cpt, s.rng, s.probs, alphaPost, groupTotals); err != nil {
			return err
		}
		if err := core.EvalMetrics(metrics, s.cpt, &s.x, s.res); err != nil {
			return fmt.Errorf("bayes: %w", err)
		}
		for j, r := range s.res {
			vals[j*n+i] = r.Value
		}
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}

	out := make([]EpsilonPosterior, len(metrics))
	for j, metric := range metrics {
		// Capped so that appending to one summary's Samples cannot
		// overwrite the next metric's values.
		samples := vals[j*n : (j+1)*n : (j+1)*n]
		sum := 0.0
		sup := samples[0]
		for _, v := range samples {
			sum += v
			if core.MetricWorse(metric, v, sup) {
				sup = v
			}
		}
		sort.Float64s(samples)
		out[j] = EpsilonPosterior{
			Mean:    sum / float64(n),
			Median:  quantileSorted(samples, 0.5),
			Lo:      quantileSorted(samples, (1-level)/2),
			Hi:      quantileSorted(samples, 1-(1-level)/2),
			Level:   level,
			Samples: samples,
			Sup:     sup,
		}
	}
	return out, nil
}

// quantileSorted returns the q-quantile of sorted values by linear
// interpolation.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
