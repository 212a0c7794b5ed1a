package core

import (
	"fmt"
	"math"
)

// RateExtrema summarizes a CPT by what the worst-case fairness metrics
// read from it: for every outcome y, the highest and lowest P(y|s) over
// the supported groups, the group attaining each, and the number of
// supported groups. The groups follow Epsilon's ascending strict-replace
// scan, so each is the lowest index among the groups tied at its
// extremum. An outcome with no supported group holds Hi = −Inf,
// Lo = +Inf and groups −1.
//
// ε (Definition 3.1), Ghosh et al.'s worst-case gap and ratio, and
// Maheshwari et al.'s α-IF are functions of these extrema alone, so one
// scan of a table scores them all (EvalMetrics), and a consumer that
// maintains the extrema incrementally (the streaming Watch and subset
// ladders) scores them without materializing a CPT; see ExtremaMetric.
type RateExtrema struct {
	Supported int
	Hi, Lo    []float64
	HiG, LoG  []int
}

// NewRateExtrema returns empty extrema for k outcomes.
func NewRateExtrema(k int) RateExtrema {
	x := RateExtrema{
		Hi:  make([]float64, k),
		Lo:  make([]float64, k),
		HiG: make([]int, k),
		LoG: make([]int, k),
	}
	x.Reset()
	return x
}

// Reset returns the extrema to the no-supported-group state.
func (x *RateExtrema) Reset() {
	x.Supported = 0
	for y := range x.Hi {
		x.ResetOutcome(y)
	}
}

// ResetOutcome returns one outcome's extrema to the no-supported-group
// sentinels, ready for a fresh ascending scan; Supported is untouched.
func (x *RateExtrema) ResetOutcome(y int) {
	x.Hi[y], x.HiG[y] = math.Inf(-1), -1
	x.Lo[y], x.LoG[y] = math.Inf(1), -1
}

// Observe folds group g's rate p for outcome y into an ascending scan:
// strict comparisons keep the lowest index among tied groups, exactly
// as Epsilon's scan does.
func (x *RateExtrema) Observe(y, g int, p float64) {
	if p > x.Hi[y] {
		x.Hi[y], x.HiG[y] = p, g
	}
	if p < x.Lo[y] {
		x.Lo[y], x.LoG[y] = p, g
	}
}

// Scan fills the extrema from a CPT in one ascending scan over its
// supported groups, every outcome at once: Epsilon's skips (weight ≤ 0)
// and min-index ties, so each outcome's extrema are the ones Epsilon's
// per-outcome scan finds. x must hold c's outcome count. The rows are
// not checked; validate the table first.
//
//df:hotpath
func (x *RateExtrema) Scan(c *CPT) {
	k := len(c.outcomes)
	x.Reset()
	for g, w := range c.weight {
		if w <= 0 {
			continue
		}
		x.Supported++
		for y, p := range c.p[g*k : (g+1)*k] {
			x.Observe(y, g, p)
		}
	}
}

// Validate is CPT.Validate's support check for extrema: fewer than two
// supported groups fail with the same error, wrapping
// ErrDegenerateSupport. (The extrema of a table built from counts hold
// probabilities by construction, so there is no row to check.)
func (x *RateExtrema) Validate() error {
	if x.Supported < 2 {
		return degenerateSupport(x.Supported)
	}
	return nil
}

// Epsilon derives ε from the extrema with the same outcome order,
// skips, early +Inf return and tie rule as Epsilon over the CPT they
// summarize, so value and witness are bit-identical to it.
//
//df:hotpath
func (x *RateExtrema) Epsilon() (EpsilonResult, error) {
	if err := x.Validate(); err != nil {
		return EpsilonResult{}, err
	}
	res := EpsilonResult{Epsilon: 0, Finite: true}
	for y := range x.Hi {
		if epsilonStep(&res, y, x.HiG[y], x.LoG[y], x.Hi[y], x.Lo[y]) {
			break
		}
	}
	return res, nil
}

// epsilonStep folds one outcome's extrema into a running ε result, the
// per-outcome step shared by Epsilon and RateExtrema.Epsilon. An
// outcome no supported group reaches carries no fairness information
// and is skipped; a zero rate against a positive one makes ε infinite
// and reports true, ending the scan.
func epsilonStep(res *EpsilonResult, y, hiG, loG int, hiP, loP float64) bool {
	if !(hiP > 0) {
		return false
	}
	if loP == 0 {
		*res = EpsilonResult{
			Epsilon: math.Inf(1),
			Witness: Witness{Outcome: y, GroupHi: hiG, GroupLo: loG},
			Finite:  false,
		}
		return true
	}
	if d := math.Log(hiP) - math.Log(loP); d > res.Epsilon {
		res.Epsilon = d
		res.Witness = Witness{Outcome: y, GroupHi: hiG, GroupLo: loG}
	}
	return false
}

// ExtremaMetric is an optional Metric extension for metrics that are
// functions of the per-outcome rate extrema alone. EvalExtrema must
// return exactly what Eval returns on any valid CPT the extrema
// summarize — value and witness, bit for bit — including the
// ErrDegenerateSupport failure below two supported groups. Its
// consumers call it instead of Eval: EvalMetrics, and through it the
// audit engines (bootstrap replicates, posterior draws, the snapshot
// subset ladder and a report's full-intersection values), score every
// such metric from one scan of the table; the streaming Watch and the
// incremental subset ladders score it from extrema they keep up to date
// without building a CPT. Metrics without the extension keep Eval.
type ExtremaMetric interface {
	Metric
	EvalExtrema(x *RateExtrema) (MetricResult, error)
}

// EvalMetrics scores every metric of ms on one CPT into out, which must
// have len(ms) entries: the table is validated once, its rate extrema
// are filled into x (which must hold c's outcome count) by one Scan, each
// ExtremaMetric is scored by EvalExtrema and only the others by Eval.
// Since EvalExtrema ≡ Eval, out[j] is exactly ms[j].Eval(c), bit for
// bit. A table that fails validation returns CPT.Validate's error as is,
// wrapping ErrDegenerateSupport below two supported groups, where every
// metric fails alike; the first metric error returns wrapped with the
// metric's key. The success path allocates nothing, so the resampling
// engines call it once per replicate and posterior draw.
//
//df:hotpath
func EvalMetrics(ms []Metric, c *CPT, x *RateExtrema, out []MetricResult) error {
	if err := c.Validate(); err != nil {
		return err
	}
	scanned := false
	for j, m := range ms {
		var err error
		if em, ok := m.(ExtremaMetric); ok {
			if !scanned {
				x.Scan(c)
				scanned = true
			}
			out[j], err = em.EvalExtrema(x)
		} else {
			out[j], err = m.Eval(c)
		}
		if err != nil {
			return metricError(m, err)
		}
	}
	return nil
}

// metricError names the metric behind an EvalMetrics failure; it runs
// only on the error path.
func metricError(m Metric, err error) error {
	return fmt.Errorf("metric %s: %w", m.Key(), err)
}

// EvalExtrema implements ExtremaMetric.
//
//df:hotpath
func (EpsilonMetric) EvalExtrema(x *RateExtrema) (MetricResult, error) {
	r, err := x.Epsilon()
	if err != nil {
		return MetricResult{}, err
	}
	return MetricResult{Value: r.Epsilon, Witness: r.Witness, Finite: r.Finite}, nil
}
