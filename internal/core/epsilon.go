package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// ErrDegenerateSupport marks validation failures caused by fewer than two
// supported groups — a table with no pairs to compare. Resampling layers
// use it (via errors.Is) to tell legitimately degenerate replicates, which
// score ε = +Inf, apart from unexpected errors that must fail the call.
var ErrDegenerateSupport = errors.New("fewer than two supported groups")

// Witness records the outcome and group pair achieving the maximal
// probability ratio — the intersections the mechanism treats most
// differently.
type Witness struct {
	Outcome int // index into the CPT's outcomes
	GroupHi int // the group with the higher P(y|s)
	GroupLo int // the group with the lower P(y|s)
}

// EpsilonResult is the measured differential-fairness parameter for one
// CPT (one θ) or a framework (a set Θ).
type EpsilonResult struct {
	// Epsilon is the smallest ε such that Definition 3.1 holds; +Inf if
	// some supported group assigns probability 0 to an outcome another
	// supported group assigns positive probability.
	Epsilon float64
	// Witness identifies a maximizing (y, si, sj) triple.
	Witness Witness
	// Finite is false when Epsilon is +Inf.
	Finite bool
}

// Epsilon computes the differential-fairness parameter of a CPT: the
// maximum over outcomes y and supported group pairs (si, sj) of
// |ln P(y|si) − ln P(y|sj)| (Definition 3.1 restricted to a single θ).
//
// Outcome probabilities that are zero for every supported group are
// skipped (the ratio 0/0 carries no fairness information); a zero against
// a positive probability yields ε = +Inf with Finite=false.
//
// Epsilon performs no allocations on the success path, so per-replicate
// resampling loops can call it freely (the dfvet hotpath analyzer and
// the BenchmarkHotPath 0 allocs/op gate both enforce this).
//
//df:hotpath
func Epsilon(c *CPT) (EpsilonResult, error) {
	if err := c.Validate(); err != nil {
		return EpsilonResult{}, err
	}
	res := EpsilonResult{Epsilon: 0, Finite: true}
	for y := 0; y < c.NumOutcomes(); y++ {
		// For a fixed outcome the maximal |log ratio| over pairs is
		// log(max) − log(min), so a single scan over the supported groups
		// suffices.
		hiG, loG, hiP, loP := OutcomeExtrema(c, y)
		if epsilonStep(&res, y, hiG, loG, hiP, loP) {
			break
		}
	}
	return res, nil
}

// OutcomeExtrema scans a CPT's supported groups (weight > 0) in
// ascending order for outcome y's highest and lowest rates and the
// groups attaining them. Only a strict improvement replaces an
// extremum, so each group is the lowest index at its extremum. With no
// supported group it returns groups −1 and rates −Inf, +Inf. It is the
// scan behind Epsilon and the Eval of every metric with an extrema form;
// RateExtrema.Scan is its all-outcome, one-pass form. The rows are not
// checked; validate the table first.
func OutcomeExtrema(c *CPT, y int) (hiG, loG int, hiP, loP float64) {
	hiG, loG = -1, -1
	hiP, loP = math.Inf(-1), math.Inf(1)
	for g, w := range c.weight {
		if w <= 0 {
			continue
		}
		p := c.Prob(g, y)
		if p > hiP {
			hiP, hiG = p, g
		}
		if p < loP {
			loP, loG = p, g
		}
	}
	return hiG, loG, hiP, loP
}

// MustEpsilon is Epsilon but panics on error.
func MustEpsilon(c *CPT) EpsilonResult {
	r, err := Epsilon(c)
	if err != nil {
		panic(err)
	}
	return r
}

// FrameworkEpsilon computes ε for a framework (A, Θ) where Θ is given as
// a set of CPTs sharing a space and outcome labels: the supremum of ε
// over θ ∈ Θ (Definition 3.1).
func FrameworkEpsilon(thetas []*CPT) (EpsilonResult, error) {
	if len(thetas) == 0 {
		return EpsilonResult{}, fmt.Errorf("core: empty framework")
	}
	var out EpsilonResult
	for i, c := range thetas {
		if i > 0 {
			if c.Space() != thetas[0].Space() && c.Space().Size() != thetas[0].Space().Size() {
				return EpsilonResult{}, fmt.Errorf("core: framework CPT %d has mismatched space", i)
			}
		}
		r, err := Epsilon(c)
		if err != nil {
			return EpsilonResult{}, fmt.Errorf("core: framework CPT %d: %w", i, err)
		}
		if i == 0 || r.Epsilon > out.Epsilon {
			out = r
		}
	}
	return out, nil
}

// SubsetEpsilon is the ε measured for one subset of the protected
// attributes, as in the paper's Table 2.
type SubsetEpsilon struct {
	Attrs  []string
	Result EpsilonResult
	// Space is the marginal space the subset was measured over; its
	// Label method renders the witness group indices in Result.
	Space *Space
}

// Key renders the subset as a comma-joined attribute list.
func (s SubsetEpsilon) Key() string { return strings.Join(s.Attrs, ",") }

// EpsilonSubsetsCPT computes ε for every nonempty subset of the protected
// attributes by marginalizing the CPT (model-based analysis). By Theorem
// 3.2 every returned ε is at most 2× the full-space ε.
func EpsilonSubsetsCPT(c *CPT) ([]SubsetEpsilon, error) {
	var out []SubsetEpsilon
	for _, names := range c.Space().SubsetNames() {
		m := c
		if len(names) < c.Space().NumAttrs() {
			var err error
			m, err = c.Marginalize(names...)
			if err != nil {
				return nil, err
			}
		}
		r, err := Epsilon(m)
		if err != nil {
			return nil, fmt.Errorf("core: subset %v: %w", names, err)
		}
		out = append(out, SubsetEpsilon{Attrs: names, Result: r, Space: m.Space()})
	}
	return out, nil
}

// EpsilonSubsetsCounts computes empirical ε (Eq. 6) for every nonempty
// subset of the protected attributes by aggregating counts, the
// computation behind the paper's Table 2. If alpha > 0 the smoothed
// estimator (Eq. 7) is used instead. It is MetricSubsetsCounts with ε
// alone, so marginal tables are shared along the subset lattice.
func EpsilonSubsetsCounts(c *Counts, alpha float64) ([]SubsetEpsilon, error) {
	ladders, err := MetricSubsetsCounts([]Metric{DFEpsilon}, c, alpha)
	if err != nil {
		return nil, err
	}
	out := make([]SubsetEpsilon, len(ladders[0]))
	for i, s := range ladders[0] {
		out[i] = SubsetEpsilon{
			Attrs:  s.Attrs,
			Result: EpsilonResult{Epsilon: s.Result.Value, Witness: s.Result.Witness, Finite: s.Result.Finite},
			Space:  s.Space,
		}
	}
	return out, nil
}

// latticeMarginals builds the counts marginal of every nonempty
// attribute subset along plan, indexed by mask; marg[plan.Full] is c
// itself. Each node's table is its parent's projected through the
// node's DropStride pair in ascending parent-cell order, so every cell
// is the sum that Counts.Marginalize would form from the parent, added
// in the same order, bit for bit. The marginals share one backing
// array, and the total work is the sum of the parent tables' sizes.
func latticeMarginals(plan *SubsetPlan, c *Counts) []Counts {
	k := len(c.outcomes)
	cells := 0
	for _, nd := range plan.Nodes {
		cells += nd.Space.Size() * k
	}
	buf := make([]float64, cells)
	marg := make([]Counts, plan.Full+1)
	marg[plan.Full] = *c
	for i := range plan.Nodes {
		nd := &plan.Nodes[i]
		n := nd.Space.Size() * k
		dst := buf[:n:n]
		buf = buf[n:]
		for pc, v := range marg[nd.Parent].n {
			g := pc / k
			dst[nd.Project(g)*k+pc-g*k] += v
		}
		marg[nd.Mask] = Counts{space: nd.Space, outcomes: c.outcomes, n: dst}
	}
	return marg
}

// SortSubsetsByEpsilon orders subset results by increasing ε, the
// presentation order of the paper's Table 2. Ties (including ties at
// +Inf) break on the attribute subset in lexicographic slice order, so
// the ladder is a deterministic function of the input regardless of the
// order subsets were enumerated in — a requirement for golden-file tests
// and byte-stable report rendering.
func SortSubsetsByEpsilon(subs []SubsetEpsilon) {
	sort.SliceStable(subs, func(i, j int) bool {
		if subs[i].Result.Epsilon != subs[j].Result.Epsilon {
			return subs[i].Result.Epsilon < subs[j].Result.Epsilon
		}
		return slices.Compare(subs[i].Attrs, subs[j].Attrs) < 0
	})
}

// BiasAmplification returns ε_mechanism − ε_data (Section 4.1): the
// additional unfairness a mechanism M2 (e.g. a trained classifier)
// introduces over the bias already present in the data it was trained on.
// Positive values mean the mechanism amplified the data's bias.
func BiasAmplification(mechanism, data EpsilonResult) float64 {
	return mechanism.Epsilon - data.Epsilon
}

// SubsetBound returns the worst-case ε guaranteed for any nonempty proper
// subset of the protected attributes by Theorem 3.2, namely 2ε.
func SubsetBound(full EpsilonResult) float64 {
	return 2 * full.Epsilon
}
