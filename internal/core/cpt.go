package core

import (
	"fmt"
	"math"
)

// CPT is a conditional probability table P(y | s, θ) over a protected
// attribute Space, together with the group weights P(s | θ). It is the
// canonical representation of one data distribution θ combined with a
// mechanism M(x): mechanisms, datasets, classifiers and Bayesian models
// all reduce to CPTs before ε is computed.
//
// Groups with weight 0 are unsupported: they are excluded from ε
// computations, exactly as Definition 3.1 requires P(s|θ) > 0.
//
// The probability storage is one group-major strided []float64 (row g
// occupies p[g·|Y| : (g+1)·|Y|]) so a table is two allocations total and
// buffer-reusing converters (Counts.EmpiricalInto / SmoothedInto) can
// refill it without allocating.
type CPT struct {
	space    *Space
	outcomes []string
	p        []float64 // len = space.Size() * len(outcomes), group-major
	weight   []float64 // P(s); >= 0, need not be normalized
}

// NewCPT creates an empty CPT (all groups unsupported) with the given
// outcome labels.
func NewCPT(space *Space, outcomes []string) (*CPT, error) {
	if space == nil {
		return nil, fmt.Errorf("core: nil space")
	}
	if len(outcomes) < 2 {
		return nil, fmt.Errorf("core: need at least two outcomes, got %d", len(outcomes))
	}
	seen := map[string]bool{}
	for _, o := range outcomes {
		if seen[o] {
			return nil, fmt.Errorf("core: duplicate outcome %q", o)
		}
		seen[o] = true
	}
	cells, err := tableCells(space, len(outcomes))
	if err != nil {
		return nil, err
	}
	return &CPT{
		space:    space,
		outcomes: append([]string(nil), outcomes...),
		p:        make([]float64, cells),
		weight:   make([]float64, space.Size()),
	}, nil
}

// MustCPT is NewCPT but panics on error.
func MustCPT(space *Space, outcomes []string) *CPT {
	c, err := NewCPT(space, outcomes)
	if err != nil {
		panic(err)
	}
	return c
}

// Space returns the protected-attribute space.
func (c *CPT) Space() *Space { return c.space }

// Outcomes returns a copy of the outcome labels. Hot loops should prefer
// NumOutcomes/Outcome, which do not allocate.
func (c *CPT) Outcomes() []string { return append([]string(nil), c.outcomes...) }

// NumOutcomes returns |Y|.
func (c *CPT) NumOutcomes() int { return len(c.outcomes) }

// Outcome returns the label of one outcome without copying the label
// slice.
func (c *CPT) Outcome(i int) string { return c.outcomes[i] }

// SetRow sets P(·|s) for one group along with its weight P(s). The
// probabilities must be non-negative and sum to 1 within tolerance; a
// weight of 0 marks the group unsupported (probs are still stored).
func (c *CPT) SetRow(group int, weight float64, probs ...float64) error {
	if group < 0 || group >= c.space.Size() {
		return fmt.Errorf("core: group %d out of range", group)
	}
	if len(probs) != len(c.outcomes) {
		return fmt.Errorf("core: SetRow got %d probabilities for %d outcomes", len(probs), len(c.outcomes))
	}
	if !(weight >= 0) || math.IsInf(weight, 0) {
		return fmt.Errorf("core: invalid weight %v", weight)
	}
	var sum float64
	for _, p := range probs {
		if !(p >= 0) || math.IsInf(p, 0) {
			return fmt.Errorf("core: invalid probability %v", p)
		}
		sum += p
	}
	if weight > 0 && math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("core: probabilities for group %d sum to %v, want 1", group, sum)
	}
	copy(c.row(group), probs)
	c.weight[group] = weight
	return nil
}

// MustSetRow is SetRow but panics on error.
func (c *CPT) MustSetRow(group int, weight float64, probs ...float64) {
	if err := c.SetRow(group, weight, probs...); err != nil {
		panic(err)
	}
}

// row returns the live backing slice of P(·|group).
func (c *CPT) row(group int) []float64 {
	k := len(c.outcomes)
	return c.p[group*k : (group+1)*k]
}

// Prob returns P(outcome | group). For unsupported groups it returns the
// stored value (normally 0).
func (c *CPT) Prob(group, outcome int) float64 { return c.p[group*len(c.outcomes)+outcome] }

// Row returns a copy of P(·|group).
func (c *CPT) Row(group int) []float64 { return append([]float64(nil), c.row(group)...) }

// Weight returns the (unnormalized) group weight P(s).
func (c *CPT) Weight(group int) float64 { return c.weight[group] }

// Supported reports whether P(s) > 0.
func (c *CPT) Supported(group int) bool { return c.weight[group] > 0 }

// SupportedGroups returns the indices of all supported groups.
func (c *CPT) SupportedGroups() []int {
	var out []int
	for g := range c.weight {
		if c.weight[g] > 0 {
			out = append(out, g)
		}
	}
	return out
}

// Reset marks every group unsupported and zeroes all probabilities,
// recycling the table as a conversion buffer.
func (c *CPT) Reset() {
	clear(c.p)
	clear(c.weight)
}

// Validate checks that at least two groups are supported and that every
// supported row is a probability vector. A table with fewer than two
// supported groups fails with an error wrapping ErrDegenerateSupport.
func (c *CPT) Validate() error {
	supported := 0
	for g := range c.weight {
		if c.weight[g] <= 0 {
			continue
		}
		supported++
		var sum float64
		for _, p := range c.row(g) {
			if !(p >= 0) {
				return fmt.Errorf("core: group %d (%s) has invalid probability", g, c.space.Label(g))
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("core: group %d (%s) probabilities sum to %v", g, c.space.Label(g), sum)
		}
	}
	if supported < 2 {
		return degenerateSupport(supported)
	}
	return nil
}

// degenerateSupport is the failure of a table with only n < 2 supported
// groups: nothing to compare. It wraps ErrDegenerateSupport.
func degenerateSupport(n int) error {
	return fmt.Errorf("core: only %d supported groups; need at least two to compare: %w",
		n, ErrDegenerateSupport)
}

// Clone returns a deep copy.
func (c *CPT) Clone() *CPT {
	out := MustCPT(c.space, c.outcomes)
	copy(out.p, c.p)
	copy(out.weight, c.weight)
	return out
}

// Marginalize computes the CPT over the subset D of protected attributes
// named by names, averaging the full conditional distributions by the
// group weights:
//
//	P(y | d) = Σ_{s consistent with d} P(y|s) P(s) / Σ P(s).
//
// This is exactly the aggregation used in the proofs of Theorems 3.1/3.2,
// so Epsilon of the result is guaranteed to be at most 2× Epsilon of the
// receiver.
func (c *CPT) Marginalize(names ...string) (*CPT, error) {
	sub, positions, err := c.space.Subset(names...)
	if err != nil {
		return nil, err
	}
	out, err := NewCPT(sub, c.outcomes)
	if err != nil {
		return nil, err
	}
	k := len(c.outcomes)
	sums := make([]float64, sub.Size()*k)
	weights := make([]float64, sub.Size())
	for g := 0; g < c.space.Size(); g++ {
		w := c.weight[g]
		if w <= 0 {
			continue
		}
		d := c.space.Project(g, sub, positions)
		weights[d] += w
		row := c.row(g)
		acc := sums[d*k : (d+1)*k]
		for y, p := range row {
			acc[y] += w * p
		}
	}
	for d := 0; d < sub.Size(); d++ {
		if weights[d] <= 0 {
			continue
		}
		dst := out.row(d)
		acc := sums[d*k : (d+1)*k]
		for y := range dst {
			dst[y] = acc[y] / weights[d]
		}
		out.weight[d] = weights[d]
	}
	return out, nil
}

// BinaryRates extracts the positive-outcome rates of a binary-outcome
// CPT: for every supported group it returns the group index, P(1 | s)
// and the group weight, in group order. It is the shared entry point of
// the repair planners, so the "is there anything to compare" guard lives
// in one place: a table with a non-binary outcome vocabulary is an
// argument error, and one with fewer than two supported groups — all
// mass on a single intersection, or no mass at all — fails with an error
// wrapping ErrDegenerateSupport instead of letting downstream math
// produce NaN rates.
func (c *CPT) BinaryRates() (groups []int, rates, weights []float64, err error) {
	if len(c.outcomes) != 2 {
		return nil, nil, nil, fmt.Errorf("core: BinaryRates needs a binary-outcome CPT, got %d outcomes", len(c.outcomes))
	}
	for g := range c.weight {
		if c.weight[g] <= 0 {
			continue
		}
		groups = append(groups, g)
		rates = append(rates, c.Prob(g, 1))
		weights = append(weights, c.weight[g])
	}
	if len(groups) < 2 {
		return nil, nil, nil, degenerateSupport(len(groups))
	}
	return groups, rates, weights, nil
}

// OutcomeIndex returns the index of the named outcome, or -1.
func (c *CPT) OutcomeIndex(name string) int {
	for i, o := range c.outcomes {
		if o == name {
			return i
		}
	}
	return -1
}
