// Package resample provides frequentist uncertainty quantification for
// measured ε and the other core.Metric values via the bootstrap — the
// counterpart to internal/bayes's posterior credible intervals. Small
// intersections make the plug-in ε of Eq. 6 noisy (the sparsity problem
// the paper's Eq. 7 addresses); bootstrap intervals make that noise
// visible.
//
// Replicates run on a parallel engine: each replicate is one
// conditional-binomial multinomial draw over the (group, outcome) cells —
// O(|A|·|Y|) rather than the O(n) per-observation draws of alias
// resampling — executed on a worker pool whose workers reuse a private
// Counts/CPT buffer pair and a re-seedable RNG. Replicate r always uses
// RNG substream (seed, r) and writes only slot r, so intervals are
// bit-identical regardless of GOMAXPROCS. ε and every other requested
// metric share one draw per replicate, and core.EvalMetrics scores them
// all on it: one validated scan per replicate table, and Eval only for
// metrics without an extrema form.
package resample

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
)

// Interval is a percentile bootstrap interval for ε.
type Interval struct {
	// Point is the ε of the original counts.
	Point float64
	// Lo and Hi bound the central interval at the requested level.
	Lo, Hi float64
	// Level is the confidence level, e.g. 0.95.
	Level float64
	// Replicates holds the sorted bootstrap ε values (infinite
	// replicates are recorded as +Inf and sort to the end).
	Replicates []float64
	// InfiniteShare is the fraction of replicates whose empirical ε was
	// infinite — itself a sparsity diagnostic.
	InfiniteShare float64
}

// EpsilonBootstrap resamples the contingency table B times (multinomial
// over all (group, outcome) cells, preserving the total count) and
// returns the percentile interval of ε at the given level. alpha > 0
// applies Eq. 7 smoothing to each replicate; with alpha = 0 some
// replicates may have infinite ε (including replicates that concentrate
// all mass in fewer than two groups), which is reported via InfiniteShare
// and treated as +Inf in the percentiles.
//
// ctx must be non-nil and carries cooperative cancellation: when it is
// canceled mid-run the workers stop claiming replicates and the call
// returns ctx.Err() promptly instead of an interval. workers pins the
// pool size (0 = one per CPU). The interval for a given (counts, alpha,
// b, level, r) is deterministic and independent of both GOMAXPROCS and
// workers.
func EpsilonBootstrap(ctx context.Context, c *core.Counts, alpha float64, b int, level float64, r *rng.RNG, workers int) (Interval, error) {
	ivs, err := MetricBootstrap(ctx, []core.Metric{core.DFEpsilon}, c, alpha, b, level, r, workers)
	if err != nil {
		return Interval{}, err
	}
	return ivs[0], nil
}

// MetricBootstrap is EpsilonBootstrap for any number of core.Metric
// values at once: each replicate table is drawn and converted to a CPT
// once, then core.EvalMetrics scores every metric on it, so B replicates
// cost B multinomial draws plus one validated scan per table, and Eval
// only for metrics without an extrema form. It returns one interval per
// metric, in the order of ms. A replicate whose table degenerates to
// fewer than two supported groups scores each metric's WorstValue (for
// ε that is +Inf); InfiniteShare counts a metric's non-finite
// replicates, which for bounded metrics is always 0. Any other error
// from any metric fails the whole call.
//
// Determinism matches EpsilonBootstrap: for a given (counts, alpha, b,
// level, r) every interval is independent of GOMAXPROCS, workers and
// the other metrics requested alongside it, and equals the interval a
// one-metric call with an identically-seeded RNG returns.
func MetricBootstrap(ctx context.Context, ms []core.Metric, c *core.Counts, alpha float64, b int, level float64, r *rng.RNG, workers int) ([]Interval, error) {
	n, points, err := validateBootstrap(ms, c, alpha, b, level)
	if err != nil {
		return nil, err
	}

	// The original cell counts are the multinomial weights. Cells() is a
	// live view; every replicate only reads it.
	space := c.Space()
	outcomes := c.Outcomes()
	weights := c.Cells()

	// One base draw from the caller's generator keeps the public contract
	// "seeded by r"; replicate i then owns substream (base, i) so results
	// do not depend on which worker runs it.
	base := r.Uint64()

	type scratch struct {
		boot *core.Counts
		cpt  *core.CPT
		rng  *rng.RNG
		x    core.RateExtrema
		res  []core.MetricResult
	}
	// reps[j*b+i] is metric j's score on replicate i.
	reps := make([]float64, len(ms)*b)
	err = par.DoCtx(ctx, workers, b, func() *scratch {
		return &scratch{
			boot: core.MustCounts(space, outcomes),
			cpt:  core.MustCPT(space, outcomes),
			rng:  rng.New(0),
			x:    core.NewRateExtrema(len(outcomes)),
			res:  make([]core.MetricResult, len(ms)),
		}
	}, func(s *scratch, i int) error {
		s.rng.SeedStream(base, uint64(i))
		// One multinomial draw fills every cell of the replicate table:
		// O(cells), allocation-free.
		s.rng.Multinomial(s.boot.Cells(), n, weights)
		if alpha > 0 {
			if err := s.boot.SmoothedInto(s.cpt, alpha, false); err != nil {
				return err
			}
		} else {
			if err := s.boot.EmpiricalInto(s.cpt); err != nil {
				return err
			}
		}
		err := core.EvalMetrics(ms, s.cpt, &s.x, s.res)
		if errors.Is(err, core.ErrDegenerateSupport) {
			// The resample concentrated all mass in fewer than two
			// groups: legitimately the most-unfair representable value
			// of every metric, not a failure.
			for j, m := range ms {
				reps[j*b+i] = m.WorstValue()
			}
			return nil
		}
		if err != nil {
			// Anything else is a real bug (invalid probabilities, shape
			// mismatch) and must not be silently scored as worst.
			return err
		}
		for j, r := range s.res {
			reps[j*b+i] = r.Value
		}
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("resample: replicate failed: %w", err)
	}

	out := make([]Interval, len(ms))
	for j := range ms {
		// Capped so that appending to one interval's Replicates cannot
		// overwrite the next metric's values.
		vals := reps[j*b : (j+1)*b : (j+1)*b]
		infinite := 0
		for _, v := range vals {
			if math.IsInf(v, 0) {
				infinite++
			}
		}
		sort.Float64s(vals)
		out[j] = Interval{
			Point:         points[j],
			Lo:            percentile(vals, (1-level)/2),
			Hi:            percentile(vals, 1-(1-level)/2),
			Level:         level,
			Replicates:    vals,
			InfiniteShare: float64(infinite) / float64(b),
		}
	}
	return out, nil
}

// validateBootstrap checks the bootstrap arguments and returns the
// integer observation total plus each metric's point value on the
// original table.
func validateBootstrap(ms []core.Metric, c *core.Counts, alpha float64, b int, level float64) (n int, points []float64, err error) {
	if len(ms) == 0 {
		return 0, nil, fmt.Errorf("resample: no metrics to bootstrap")
	}
	if b <= 0 {
		return 0, nil, fmt.Errorf("resample: need B > 0 replicates, got %d", b)
	}
	if !(level > 0 && level < 1) {
		return 0, nil, fmt.Errorf("resample: level %v outside (0,1)", level)
	}
	total := c.Total()
	if total <= 0 {
		return 0, nil, fmt.Errorf("resample: empty counts")
	}
	n = int(math.Round(total))
	if math.Abs(total-float64(n)) > 1e-9 {
		return 0, nil, fmt.Errorf("resample: bootstrap requires integer counts, total is %v", total)
	}
	var cpt *core.CPT
	if alpha > 0 {
		if cpt, err = c.Smoothed(alpha, false); err != nil {
			return 0, nil, err
		}
	} else {
		cpt = c.Empirical()
	}
	x := core.NewRateExtrema(c.NumOutcomes())
	res := make([]core.MetricResult, len(ms))
	if err := core.EvalMetrics(ms, cpt, &x, res); err != nil {
		return 0, nil, fmt.Errorf("resample: %w", err)
	}
	points = make([]float64, len(ms))
	for j, r := range res {
		points[j] = r.Value
	}
	return n, points, nil
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	if math.IsInf(sorted[hi], 1) {
		return sorted[hi]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
