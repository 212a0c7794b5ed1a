package core

import "fmt"

// LabeledCounts is a three-way contingency table N[s][y][ŷ] of predicted
// outcomes per (intersectional group, true label) stratum. It supports
// the equalized-odds analogue of differential fairness that the paper
// sketches as future work in Section 7.1: instead of bounding outcome
// ratios marginally, bound them within each true-label stratum, so the
// criterion compares error rates rather than raw outcome rates.
type LabeledCounts struct {
	space    *Space
	labels   []string
	outcomes []string
	n        [][][]float64 // n[group][label][outcome]
}

// NewLabeledCounts creates a zeroed table over the given true labels and
// predicted outcomes.
func NewLabeledCounts(space *Space, labels, outcomes []string) (*LabeledCounts, error) {
	if space == nil {
		return nil, fmt.Errorf("core: nil space")
	}
	if len(labels) < 2 {
		return nil, fmt.Errorf("core: need at least two true labels, got %d", len(labels))
	}
	if len(outcomes) < 2 {
		return nil, fmt.Errorf("core: need at least two outcomes, got %d", len(outcomes))
	}
	n := make([][][]float64, space.Size())
	for g := range n {
		n[g] = make([][]float64, len(labels))
		for l := range n[g] {
			n[g][l] = make([]float64, len(outcomes))
		}
	}
	return &LabeledCounts{
		space:    space,
		labels:   append([]string(nil), labels...),
		outcomes: append([]string(nil), outcomes...),
		n:        n,
	}, nil
}

// Space returns the protected-attribute space.
func (c *LabeledCounts) Space() *Space { return c.space }

// Labels returns a copy of the true-label names.
func (c *LabeledCounts) Labels() []string { return append([]string(nil), c.labels...) }

// Outcomes returns a copy of the predicted-outcome names.
func (c *LabeledCounts) Outcomes() []string { return append([]string(nil), c.outcomes...) }

// Observe records one (group, true label, predicted outcome) triple.
func (c *LabeledCounts) Observe(group, label, outcome int) error {
	if group < 0 || group >= c.space.Size() {
		return fmt.Errorf("core: group %d out of range", group)
	}
	if label < 0 || label >= len(c.labels) {
		return fmt.Errorf("core: label %d out of range", label)
	}
	if outcome < 0 || outcome >= len(c.outcomes) {
		return fmt.Errorf("core: outcome %d out of range", outcome)
	}
	c.n[group][label][outcome]++
	return nil
}

// FromLabeledObservations builds LabeledCounts from parallel slices.
func FromLabeledObservations(space *Space, labels, outcomes []string, groups, ys, preds []int) (*LabeledCounts, error) {
	if len(groups) != len(ys) || len(groups) != len(preds) {
		return nil, fmt.Errorf("core: mismatched observation slices (%d/%d/%d)", len(groups), len(ys), len(preds))
	}
	c, err := NewLabeledCounts(space, labels, outcomes)
	if err != nil {
		return nil, err
	}
	for i := range groups {
		if err := c.Observe(groups[i], ys[i], preds[i]); err != nil {
			return nil, fmt.Errorf("core: observation %d: %w", i, err)
		}
	}
	return c, nil
}

// Stratum extracts the Counts of predicted outcomes per group within one
// true-label stratum: the input to per-label ε.
func (c *LabeledCounts) Stratum(label int) (*Counts, error) {
	if label < 0 || label >= len(c.labels) {
		return nil, fmt.Errorf("core: label %d out of range", label)
	}
	out, err := NewCounts(c.space, c.outcomes)
	if err != nil {
		return nil, err
	}
	for g := range c.n {
		for y, v := range c.n[g][label] {
			if v > 0 {
				if err := out.Add(g, y, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// Clone returns a deep copy.
func (c *LabeledCounts) Clone() *LabeledCounts {
	out, err := NewLabeledCounts(c.space, c.labels, c.outcomes)
	if err != nil {
		panic(err) // c was already validated at its own construction
	}
	for g := range c.n {
		for l := range c.n[g] {
			copy(out.n[g][l], c.n[g][l])
		}
	}
	return out
}

// Marginal collapses the true labels, recovering the plain outcome
// Counts (the input to ordinary DF).
func (c *LabeledCounts) Marginal() *Counts {
	out := MustCounts(c.space, c.outcomes)
	for g := range c.n {
		for l := range c.n[g] {
			for y, v := range c.n[g][l] {
				if v > 0 {
					out.MustAdd(g, y, v)
				}
			}
		}
	}
	return out
}

// StratumEpsilon is ε measured within one true-label stratum.
type StratumEpsilon struct {
	Label  string
	Result EpsilonResult
}

// EqualizedOddsResult is the equalized-odds analogue of DF: the
// per-stratum ε values and their maximum. A mechanism is ε-equalized-
// odds-DF when for every true label y*, every predicted outcome ŷ and
// every pair of supported groups,
//
//	e^-ε ≤ P(ŷ | y*, si) / P(ŷ | y*, sj) ≤ e^ε.
//
// The same 2ε subset guarantee holds per stratum (each stratum is a
// plain DF instance), and the Eq. 4 privacy bound applies to adversaries
// who know the true label.
type EqualizedOddsResult struct {
	// Epsilon is the maximum over strata.
	Epsilon float64
	Finite  bool
	// PerLabel holds each stratum's ε in label order.
	PerLabel []StratumEpsilon
}

// EqualizedOddsEpsilon computes the equalized-odds DF of labeled counts.
// alpha > 0 applies Eq. 7 smoothing within each stratum; alpha = 0 uses
// the empirical estimator. Strata with fewer than two populated groups
// are skipped (they constrain nothing).
func EqualizedOddsEpsilon(c *LabeledCounts, alpha float64) (EqualizedOddsResult, error) {
	out := EqualizedOddsResult{Finite: true}
	usable := 0
	for l := range c.labels {
		stratum, err := c.Stratum(l)
		if err != nil {
			return out, err
		}
		cpt, err := Estimate(stratum, alpha)
		if err != nil {
			return out, err
		}
		if len(cpt.SupportedGroups()) < 2 {
			continue
		}
		res, err := Epsilon(cpt)
		if err != nil {
			return out, err
		}
		usable++
		out.PerLabel = append(out.PerLabel, StratumEpsilon{Label: c.labels[l], Result: res})
		if res.Epsilon > out.Epsilon {
			out.Epsilon = res.Epsilon
		}
		if !res.Finite {
			out.Finite = false
		}
	}
	if usable == 0 {
		return out, fmt.Errorf("core: no stratum has two populated groups")
	}
	return out, nil
}

// EqualOpportunityEpsilon restricts the equalized-odds analogue to a
// single "deserving" label (Hardt et al.'s relaxation, per the paper's
// Section 7.1 discussion).
func EqualOpportunityEpsilon(c *LabeledCounts, deservingLabel int, alpha float64) (EpsilonResult, error) {
	stratum, err := c.Stratum(deservingLabel)
	if err != nil {
		return EpsilonResult{}, err
	}
	cpt, err := Estimate(stratum, alpha)
	if err != nil {
		return EpsilonResult{}, err
	}
	return Epsilon(cpt)
}

// Total returns the number of observations.
func (c *LabeledCounts) Total() float64 {
	var sum float64
	for g := range c.n {
		for l := range c.n[g] {
			for _, v := range c.n[g][l] {
				sum += v
			}
		}
	}
	return sum
}

// N returns N[group][label][outcome].
func (c *LabeledCounts) N(group, label, outcome int) float64 {
	return c.n[group][label][outcome]
}
