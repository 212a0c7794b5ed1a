package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// MetricResult is one measured fairness-metric value with the witness
// groups that achieved it — the generic form of EpsilonResult, shared by
// every Metric implementation.
type MetricResult struct {
	// Value is the measured metric.
	Value float64
	// Witness identifies the (outcome, most-favored, least-favored)
	// triple behind the value, in the metric's own terms.
	Witness Witness
	// Finite is false when Value is non-finite (±Inf).
	Finite bool
}

// Metric is a fairness metric computable from one CPT snapshot — the
// same (group, outcome) table ε consumes. Implementations are immutable
// values: Eval must be deterministic, allocation-light, and safe to call
// concurrently, so the bootstrap/credible engines can evaluate a metric
// per replicate on pooled buffers with bit-identical results regardless
// of GOMAXPROCS.
//
// ε-differential fairness (EpsilonMetric), the worst-case pairwise
// family of Ghosh et al., and the α-intersectional family of Maheshwari
// et al. (internal/fairmetrics) all implement it; the resampling
// engines, subset ladder, Watch alerting, and the versioned Report are
// generic over it.
type Metric interface {
	// Key is the stable registry/selector identifier, e.g. "epsilon".
	Key() string
	// Describe is a one-line human-readable description with citation.
	Describe() string
	// HigherIsWorse orients the metric: true when larger values mean
	// more unfairness (ε, gaps), false when smaller values do
	// (min/max ratios).
	HigherIsWorse() bool
	// WorstValue is the value scored by a degenerate resample (fewer
	// than two supported groups — nothing to compare): the
	// most-unfair representable value, +Inf for ε-like metrics.
	WorstValue() float64
	// Applicable reports whether the metric is defined on tables of
	// this shape (e.g. binary-outcome-only metrics reject multi-outcome
	// vocabularies) with a descriptive error.
	Applicable(space *Space, outcomes []string) error
	// Eval measures the metric on one CPT. A table with fewer than two
	// supported groups fails with an error wrapping
	// ErrDegenerateSupport; resampling layers score such replicates as
	// WorstValue instead of failing.
	Eval(c *CPT) (MetricResult, error)
}

// MetricWorse reports whether a is worse (more unfair) than b under the
// metric's orientation.
func MetricWorse(m Metric, a, b float64) bool {
	if m.HigherIsWorse() {
		return a > b
	}
	return a < b
}

// MetricBreached reports whether a measured value crosses the threshold
// on the metric's unfair side: value > threshold for higher-is-worse
// metrics, value < threshold otherwise (e.g. a worst-case ratio under
// the 0.8 disparate-impact line).
func MetricBreached(m Metric, value, threshold float64) bool {
	return MetricWorse(m, value, threshold)
}

// EpsilonMetric is differential fairness as a Metric: the paper's ε
// (Definition 3.1) adapted to the generic metric pipeline. Eval is
// exactly Epsilon, so values, witnesses and degenerate-support errors
// match the dedicated ε path bit for bit.
type EpsilonMetric struct{}

// DFEpsilon is the canonical EpsilonMetric instance.
var DFEpsilon Metric = EpsilonMetric{}

// Key implements Metric.
func (EpsilonMetric) Key() string { return "epsilon" }

// Describe implements Metric.
func (EpsilonMetric) Describe() string {
	return "differential fairness ε: max |ln P(y|si) − ln P(y|sj)| over outcomes and supported group pairs (Foulds et al., ICDE 2020)"
}

// HigherIsWorse implements Metric.
func (EpsilonMetric) HigherIsWorse() bool { return true }

// WorstValue implements Metric.
func (EpsilonMetric) WorstValue() float64 { return math.Inf(1) }

// Applicable implements Metric: ε is defined on every table shape.
func (EpsilonMetric) Applicable(space *Space, outcomes []string) error {
	if space == nil {
		return fmt.Errorf("core: epsilon: nil space")
	}
	if len(outcomes) < 2 {
		return fmt.Errorf("core: epsilon: need at least two outcomes, got %d", len(outcomes))
	}
	return nil
}

// Eval implements Metric.
func (EpsilonMetric) Eval(c *CPT) (MetricResult, error) {
	r, err := Epsilon(c)
	if err != nil {
		return MetricResult{}, err
	}
	return MetricResult{Value: r.Epsilon, Witness: r.Witness, Finite: r.Finite}, nil
}

// SubsetMetric is one metric value measured over a subset of the
// protected attributes — the generic form of SubsetEpsilon.
type SubsetMetric struct {
	Attrs  []string
	Result MetricResult
	// Space is the marginal space the subset was measured over; its
	// Label method renders the witness group indices in Result.
	Space *Space
}

// Key renders the subset as a comma-joined attribute list.
func (s SubsetMetric) Key() string { return strings.Join(s.Attrs, ",") }

// MetricSubsetsCounts measures every metric for every nonempty subset
// of the protected attributes by aggregating counts — the Table 2
// ladder generalized beyond ε. It walks the subset lattice once along
// NewSubsetPlan: each subset's counts are projected from its parent's
// (see latticeMarginals), each subset's CPT is built once under the
// estimator alpha selects (EstimateInto), and EvalMetrics scores every
// metric on it with one validated scan. The result holds one ladder per
// metric, in the order of ms, each listing the subsets in
// Space.SubsetNames order; with no metrics it is empty and the lattice
// is not walked.
func MetricSubsetsCounts(ms []Metric, c *Counts, alpha float64) ([][]SubsetMetric, error) {
	if len(ms) == 0 {
		return nil, nil
	}
	plan, err := NewSubsetPlan(c.space)
	if err != nil {
		return nil, err
	}
	marg := latticeMarginals(plan, c)
	out := make([][]SubsetMetric, len(ms))
	for j := range out {
		out[j] = make([]SubsetMetric, len(plan.Names))
	}
	x := NewRateExtrema(c.NumOutcomes())
	res := make([]MetricResult, len(ms))
	for i, names := range plan.Names {
		m := &marg[plan.Masks[i]]
		cpt, err := Estimate(m, alpha)
		if err != nil {
			return nil, err
		}
		if err := EvalMetrics(ms, cpt, &x, res); err != nil {
			return nil, fmt.Errorf("core: subset %v: %w", names, err)
		}
		for j, r := range res {
			out[j][i] = SubsetMetric{Attrs: names, Result: r, Space: m.space}
		}
	}
	return out, nil
}

// SortSubsetsByMetricValue orders subset results from least to most
// unfair under the metric's orientation, with the same lexicographic
// attribute-subset tie-breaking as SortSubsetsByEpsilon, so metric
// ladders are a deterministic function of the input.
func SortSubsetsByMetricValue(m Metric, subs []SubsetMetric) {
	sort.SliceStable(subs, func(i, j int) bool {
		vi, vj := subs[i].Result.Value, subs[j].Result.Value
		if vi != vj {
			return MetricWorse(m, vj, vi)
		}
		return slices.Compare(subs[i].Attrs, subs[j].Attrs) < 0
	})
}
