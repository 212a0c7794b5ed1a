package core

import (
	"fmt"
	"math"
)

// Counts is a contingency table N[s][y] of outcome counts per
// intersectional group, the sufficient statistic for empirical
// differential fairness (Definition 4.2).
//
// The backing storage is a single group-major strided []float64 (cell
// (g, y) lives at n[g·|Y|+y]) so the whole table is one allocation and
// hot paths — bootstrap replicates, streaming snapshots — can fill or
// copy it with a single pass.
type Counts struct {
	space    *Space
	outcomes []string
	n        []float64 // len = space.Size() * len(outcomes), group-major
}

// NewCounts creates a zeroed contingency table.
func NewCounts(space *Space, outcomes []string) (*Counts, error) {
	if space == nil {
		return nil, fmt.Errorf("core: nil space")
	}
	if len(outcomes) < 2 {
		return nil, fmt.Errorf("core: need at least two outcomes, got %d", len(outcomes))
	}
	cells, err := tableCells(space, len(outcomes))
	if err != nil {
		return nil, err
	}
	return &Counts{
		space:    space,
		outcomes: append([]string(nil), outcomes...),
		n:        make([]float64, cells),
	}, nil
}

// tableCells returns groups × outcomes, the cell count of a table over
// space, or an error when the product overflows int.
func tableCells(space *Space, outcomes int) (int, error) {
	if space.Size() > math.MaxInt/outcomes {
		return 0, fmt.Errorf("core: %d groups × %d outcomes is more cells than an int can count", space.Size(), outcomes)
	}
	return space.Size() * outcomes, nil
}

// MustCounts is NewCounts but panics on error.
func MustCounts(space *Space, outcomes []string) *Counts {
	c, err := NewCounts(space, outcomes)
	if err != nil {
		panic(err)
	}
	return c
}

// Space returns the protected-attribute space.
func (c *Counts) Space() *Space { return c.space }

// Outcomes returns a copy of the outcome labels. Hot loops should prefer
// NumOutcomes/Outcome, which do not allocate.
func (c *Counts) Outcomes() []string { return append([]string(nil), c.outcomes...) }

// NumOutcomes returns |Y| without allocating.
func (c *Counts) NumOutcomes() int { return len(c.outcomes) }

// Outcome returns the label of one outcome without copying the label
// slice.
func (c *Counts) Outcome(i int) string { return c.outcomes[i] }

// Cells returns the live backing storage in group-major order: cell
// (g, y) is Cells()[g*NumOutcomes()+y]. It is a mutable view, not a copy;
// it exists for allocation-free hot paths (e.g. filling a bootstrap
// replicate with one multinomial draw). Callers that write through it are
// responsible for keeping every cell finite and non-negative.
func (c *Counts) Cells() []float64 { return c.n }

// Add increments N[group][outcome] by delta (delta may be fractional for
// weighted data). It errors on out-of-range indices or negative results.
func (c *Counts) Add(group, outcome int, delta float64) error {
	if group < 0 || group >= c.space.Size() {
		return fmt.Errorf("core: group %d out of range", group)
	}
	if outcome < 0 || outcome >= len(c.outcomes) {
		return fmt.Errorf("core: outcome %d out of range", outcome)
	}
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return fmt.Errorf("core: invalid delta %v", delta)
	}
	i := group*len(c.outcomes) + outcome
	if c.n[i]+delta < 0 {
		return fmt.Errorf("core: count for group %d outcome %d would become negative", group, outcome)
	}
	c.n[i] += delta
	return nil
}

// MustAdd is Add but panics on error.
func (c *Counts) MustAdd(group, outcome int, delta float64) {
	if err := c.Add(group, outcome, delta); err != nil {
		panic(err)
	}
}

// Observe increments the count for one observation.
func (c *Counts) Observe(group, outcome int) error { return c.Add(group, outcome, 1) }

// N returns N[group][outcome].
func (c *Counts) N(group, outcome int) float64 { return c.n[group*len(c.outcomes)+outcome] }

// GroupTotal returns N_s = Σ_y N[s][y].
func (c *Counts) GroupTotal(group int) float64 {
	k := len(c.outcomes)
	var sum float64
	for _, v := range c.n[group*k : (group+1)*k] {
		sum += v
	}
	return sum
}

// OutcomeTotal returns N_y = Σ_s N[s][y].
func (c *Counts) OutcomeTotal(outcome int) float64 {
	k := len(c.outcomes)
	var sum float64
	for i := outcome; i < len(c.n); i += k {
		sum += c.n[i]
	}
	return sum
}

// Total returns the number of observations N.
func (c *Counts) Total() float64 {
	var sum float64
	for _, v := range c.n {
		sum += v
	}
	return sum
}

// Reset zeroes every cell, recycling the table for a fresh accumulation.
func (c *Counts) Reset() {
	clear(c.n)
}

// Empirical converts counts to a CPT using the plug-in estimator of
// Eq. 6: P(y|s) = N_{y,s} / N_s with group weights N_s / N. Groups with
// N_s = 0 are unsupported, matching the paper's "whenever N_s > 0"
// condition.
func (c *Counts) Empirical() *CPT {
	out := MustCPT(c.space, c.outcomes)
	if err := c.EmpiricalInto(out); err != nil {
		panic(err) // impossible: shapes match by construction
	}
	return out
}

// EmpiricalInto is Empirical writing into a caller-owned CPT buffer,
// overwriting every row and weight, so repeated conversions (bootstrap
// replicates, posterior draws, streaming snapshots) are allocation-free.
// dst must have the same group count and number of outcomes.
func (c *Counts) EmpiricalInto(dst *CPT) error {
	if err := c.checkShape(dst); err != nil {
		return err
	}
	estimateInto(c, dst, 0, false)
	return nil
}

// Smoothed converts counts to a CPT using the Dirichlet-multinomial
// posterior predictive of Eq. 7:
//
//	P(y|s) = (N_{y,s} + α) / (N_s + |Y|·α)
//
// with a symmetric Dirichlet prior of per-outcome pseudo-count α > 0.
// Groups with N_s = 0 remain unsupported unless includeEmpty is true, in
// which case they receive the prior-predictive uniform distribution with
// an infinitesimal positive weight so they participate in ε.
func (c *Counts) Smoothed(alpha float64, includeEmpty bool) (*CPT, error) {
	out := MustCPT(c.space, c.outcomes)
	if err := c.SmoothedInto(out, alpha, includeEmpty); err != nil {
		return nil, err
	}
	return out, nil
}

// SmoothedInto is Smoothed writing into a caller-owned CPT buffer,
// overwriting every row and weight. dst must have the same group count
// and number of outcomes.
func (c *Counts) SmoothedInto(dst *CPT, alpha float64, includeEmpty bool) error {
	if !(alpha > 0) || math.IsInf(alpha, 0) {
		return fmt.Errorf("core: smoothing requires alpha > 0, got %v", alpha)
	}
	if err := c.checkShape(dst); err != nil {
		return err
	}
	estimateInto(c, dst, alpha, includeEmpty)
	return nil
}

// estimateInto is the one conversion from counts to a CPT, for α ≥ 0:
// every group with N_s > 0 gets P(y|s) = (N_{y,s} + α) / (N_s + |Y|·α)
// and weight N_s. At α = 0 that is Eq. 6 bit for bit, because a cell is
// finite and non-negative, so N_{y,s} + 0 = N_{y,s} and N_s + |Y|·0 =
// N_s; at α > 0 it is Eq. 7. A group with N_s = 0 is unsupported (zero
// row and weight) unless includeEmpty is set, which gives it the
// formula's uniform row and the smallest positive weight. dst's shape
// must already be checked.
func estimateInto(c *Counts, dst *CPT, alpha float64, includeEmpty bool) {
	k := len(c.outcomes)
	kf := float64(k)
	for g := 0; g < c.space.Size(); g++ {
		row := c.n[g*k : (g+1)*k]
		var ns float64
		for _, v := range row {
			ns += v
		}
		out := dst.p[g*k : (g+1)*k]
		if ns <= 0 && !includeEmpty {
			dst.weight[g] = 0
			clear(out)
			continue
		}
		denom := ns + kf*alpha
		for y, v := range row {
			out[y] = (v + alpha) / denom
		}
		if ns > 0 {
			dst.weight[g] = ns
		} else {
			dst.weight[g] = math.SmallestNonzeroFloat64
		}
	}
}

// EstimateInto converts counts into dst under the estimator alpha
// selects, the choice every audit, monitor and repair path makes: the
// Dirichlet-smoothed Eq. 7 (SmoothedInto, empty groups unsupported) when
// alpha > 0, and the empirical Eq. 6 (EmpiricalInto) for any other
// alpha. dst must have the counts' group count and number of outcomes.
func EstimateInto(c *Counts, dst *CPT, alpha float64) error {
	if alpha > 0 {
		return c.SmoothedInto(dst, alpha, false)
	}
	return c.EmpiricalInto(dst)
}

// Estimate is EstimateInto into a new CPT.
func Estimate(c *Counts, alpha float64) (*CPT, error) {
	out := MustCPT(c.space, c.outcomes)
	if err := EstimateInto(c, out, alpha); err != nil {
		return nil, err
	}
	return out, nil
}

// EstimatorLabel names the estimator Estimate uses at alpha, as reports
// and repair plans print it.
func EstimatorLabel(alpha float64) string {
	if alpha > 0 {
		return fmt.Sprintf("Dirichlet-smoothed, alpha=%g (Eq. 7)", alpha)
	}
	return "empirical (Eq. 6)"
}

// checkShape verifies dst can hold a CPT derived from these counts.
func (c *Counts) checkShape(dst *CPT) error {
	if dst == nil {
		return fmt.Errorf("core: nil destination CPT")
	}
	if dst.space.Size() != c.space.Size() || len(dst.outcomes) != len(c.outcomes) {
		return fmt.Errorf("core: destination CPT shape %dx%d does not match counts %dx%d",
			dst.space.Size(), len(dst.outcomes), c.space.Size(), len(c.outcomes))
	}
	return nil
}

// AddScaled accumulates scale × src into the receiver cell-wise:
// c[g][y] += scale · src[g][y]. It is the merge primitive of the sharded
// streaming engine (per-shard tables carry their own weight basis, and a
// snapshot folds every shard into one table with a single scaled add per
// shard). src must have the same group count and number of outcomes;
// scale must be finite and non-negative (a scale of 0 is a no-op, which
// lets callers fold fully-decayed shards without branching).
func (c *Counts) AddScaled(src *Counts, scale float64) error {
	if src == nil {
		return fmt.Errorf("core: AddScaled: nil source")
	}
	if src.space.Size() != c.space.Size() || len(src.outcomes) != len(c.outcomes) {
		return fmt.Errorf("core: AddScaled: source shape %dx%d does not match %dx%d",
			src.space.Size(), len(src.outcomes), c.space.Size(), len(c.outcomes))
	}
	if !(scale >= 0) || math.IsInf(scale, 0) {
		return fmt.Errorf("core: AddScaled: invalid scale %v", scale)
	}
	if scale == 0 {
		return nil
	}
	for i, v := range src.n {
		c.n[i] += v * scale
	}
	return nil
}

// Merge accumulates src into the receiver cell-wise (AddScaled with
// scale 1): the merge step for windowed streaming buckets and any other
// same-shape partial tables.
func (c *Counts) Merge(src *Counts) error { return c.AddScaled(src, 1) }

// Marginalize aggregates counts over the named subset of attributes by
// summation. Empirical ε of the result realizes the paper's Table 2
// computation per attribute subset.
func (c *Counts) Marginalize(names ...string) (*Counts, error) {
	sub, positions, err := c.space.Subset(names...)
	if err != nil {
		return nil, err
	}
	out, err := NewCounts(sub, c.outcomes)
	if err != nil {
		return nil, err
	}
	k := len(c.outcomes)
	for g := 0; g < c.space.Size(); g++ {
		d := c.space.Project(g, sub, positions)
		src := c.n[g*k : (g+1)*k]
		dst := out.n[d*k : (d+1)*k]
		for y, v := range src {
			dst[y] += v
		}
	}
	return out, nil
}

// Clone returns a deep copy.
func (c *Counts) Clone() *Counts {
	out := MustCounts(c.space, c.outcomes)
	copy(out.n, c.n)
	return out
}

// FromObservations builds Counts from parallel slices of group and
// outcome indices.
func FromObservations(space *Space, outcomes []string, groups, ys []int) (*Counts, error) {
	if len(groups) != len(ys) {
		return nil, fmt.Errorf("core: %d groups vs %d outcomes", len(groups), len(ys))
	}
	c, err := NewCounts(space, outcomes)
	if err != nil {
		return nil, err
	}
	for i := range groups {
		if err := c.Observe(groups[i], ys[i]); err != nil {
			return nil, fmt.Errorf("core: observation %d: %w", i, err)
		}
	}
	return c, nil
}
