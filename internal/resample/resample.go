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
// metrics without an extrema form. Bootstrap exposes the engine's
// three steps (prepare, draw i, summarize) so that an audit can draw
// its replicates on one fan-out with its posterior samples.
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
//
//df:ignore deadexport — the entry point of BenchmarkEpsilonBootstrap and BenchmarkBootstrap, whose results CI publishes as BENCH_resample.json
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
//
// It is NewBootstrap, then Draw for every replicate on a par.DoCtx
// fan-out, then Intervals.
func MetricBootstrap(ctx context.Context, ms []core.Metric, c *core.Counts, alpha float64, b int, level float64, r *rng.RNG, workers int) ([]Interval, error) {
	bt, err := NewBootstrap(ms, c, alpha, b, level, r)
	if err != nil {
		return nil, err
	}
	if err := par.DoCtx(ctx, workers, b, bt.NewScratch, bt.Draw); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return bt.Intervals(), nil
}

// Bootstrap is one MetricBootstrap call split into its three steps, so
// that a caller can run its replicates on a fan-out it shares with
// other work: NewBootstrap validates and seeds, Draw runs one replicate,
// and Intervals summarizes once every replicate has been drawn.
type Bootstrap struct {
	ms       []core.Metric
	space    *core.Space
	outcomes []string
	// weights are the original cell counts, the multinomial weights of
	// every replicate. It is a live view of the counts; Draw only reads
	// it.
	weights []float64
	n       int
	alpha   float64
	b       int
	level   float64
	points  []float64
	base    uint64
	// reps[j*b+i] is metric j's score on replicate i.
	reps []float64
}

// NewBootstrap validates the arguments of a MetricBootstrap call and
// prepares its replicates: the metrics' point values on c, one base
// draw from r (replicate i then owns substream (base, i), so results do
// not depend on which worker runs it) and the result slots. It takes
// one Uint64 from r, as MetricBootstrap does. c must not change until
// the last Draw has returned.
func NewBootstrap(ms []core.Metric, c *core.Counts, alpha float64, b int, level float64, r *rng.RNG) (*Bootstrap, error) {
	n, points, err := validateBootstrap(ms, c, alpha, b, level)
	if err != nil {
		return nil, err
	}
	return &Bootstrap{
		ms:       ms,
		space:    c.Space(),
		outcomes: c.Outcomes(),
		weights:  c.Cells(),
		n:        n,
		alpha:    alpha,
		b:        b,
		level:    level,
		points:   points,
		base:     r.Uint64(),
		reps:     make([]float64, len(ms)*b),
	}, nil
}

// Replicates returns B, the number of Draw indices.
func (bt *Bootstrap) Replicates() int { return bt.b }

// Scratch is one worker's replicate buffers, reused across every Draw
// it runs.
type Scratch struct {
	boot *core.Counts
	cpt  *core.CPT
	rng  *rng.RNG
	x    core.RateExtrema
	res  []core.MetricResult
}

// NewScratch returns fresh replicate buffers for one worker.
func (bt *Bootstrap) NewScratch() *Scratch {
	return &Scratch{
		boot: core.MustCounts(bt.space, bt.outcomes),
		cpt:  core.MustCPT(bt.space, bt.outcomes),
		rng:  rng.New(0),
		x:    core.NewRateExtrema(len(bt.outcomes)),
		res:  make([]core.MetricResult, len(bt.ms)),
	}
}

// Draw runs replicate i, for i in [0, Replicates()): one multinomial
// draw from substream (base, i) fills every cell of the replicate table
// (O(cells), allocation-free), and every metric's score lands in slot i.
// Draws with distinct i may run concurrently, each with its own Scratch.
func (bt *Bootstrap) Draw(s *Scratch, i int) error {
	s.rng.SeedStream(bt.base, uint64(i))
	s.rng.Multinomial(s.boot.Cells(), bt.n, bt.weights)
	if err := core.EstimateInto(s.boot, s.cpt, bt.alpha); err != nil {
		return fmt.Errorf("resample: replicate failed: %w", err)
	}
	err := core.EvalMetrics(bt.ms, s.cpt, &s.x, s.res)
	if errors.Is(err, core.ErrDegenerateSupport) {
		// The resample concentrated all mass in fewer than two groups:
		// legitimately the most-unfair representable value of every
		// metric, not a failure.
		for j, m := range bt.ms {
			bt.reps[j*bt.b+i] = m.WorstValue()
		}
		return nil
	}
	if err != nil {
		// Anything else is a real bug (invalid probabilities, shape
		// mismatch) and must not be silently scored as worst.
		return fmt.Errorf("resample: replicate failed: %w", err)
	}
	for j, r := range s.res {
		bt.reps[j*bt.b+i] = r.Value
	}
	return nil
}

// Intervals summarizes the replicates into one interval per metric, in
// the order of the metrics. Call it once, after Draw has returned nil
// for every replicate; the intervals own the sorted replicate slots.
func (bt *Bootstrap) Intervals() []Interval {
	out := make([]Interval, len(bt.ms))
	for j := range bt.ms {
		// Capped so that appending to one interval's Replicates cannot
		// overwrite the next metric's values.
		vals := bt.reps[j*bt.b : (j+1)*bt.b : (j+1)*bt.b]
		infinite := 0
		for _, v := range vals {
			if math.IsInf(v, 0) {
				infinite++
			}
		}
		sort.Float64s(vals)
		out[j] = Interval{
			Point:         bt.points[j],
			Lo:            percentile(vals, (1-bt.level)/2),
			Hi:            percentile(vals, 1-(1-bt.level)/2),
			Level:         bt.level,
			Replicates:    vals,
			InfiniteShare: float64(infinite) / float64(bt.b),
		}
	}
	return out
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
	cpt, err := core.Estimate(c, alpha)
	if err != nil {
		return 0, nil, err
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
