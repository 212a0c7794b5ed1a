package fairmetrics

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// This file adapts the Section 7.1 baseline definitions — plus the
// worst-case pairwise family of Ghosh et al. ("Characterizing
// Intersectional Group Fairness with Worst-Case Comparisons") and the
// α-intersectional family of Maheshwari et al. ("Fair Without Leveling
// Down") — to core.Metric: fairness metrics computed from the same
// (group, outcome) CPT snapshot ε consumes, so they flow through the
// bootstrap/credible engines, the subset ladder, Watch alerting and the
// versioned Report unchanged.
//
// Every Eval scans supported groups in ascending index order with
// strict comparisons, matching core.Epsilon's min-index tie-breaking,
// so values AND witnesses are a deterministic function of the table.
// All but SubgroupParity read only the per-outcome rate extrema and
// also implement core.ExtremaMetric; Eval and EvalExtrema share each
// metric's arithmetic, so the two forms agree bit for bit.

// binaryOnly rejects non-binary outcome vocabularies for the metrics
// defined on a positive-outcome rate.
func binaryOnly(key string, space *core.Space, outcomes []string) error {
	if space == nil {
		return fmt.Errorf("fairmetrics: %s: nil space", key)
	}
	if len(outcomes) != 2 {
		return fmt.Errorf("fairmetrics: %s is defined on binary outcomes, got %d", key, len(outcomes))
	}
	return nil
}

// outcomeRates scans a validated CPT for outcome y's extreme rates over
// supported groups. Ties break toward the lowest group index, like
// core.Epsilon.
func outcomeRates(c *core.CPT, y int) (hiG, loG int, hiP, loP float64) {
	hiG, loG = -1, -1
	hiP, loP = math.Inf(-1), math.Inf(1)
	for g := 0; g < c.Space().Size(); g++ {
		if c.Weight(g) <= 0 {
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

// WorstGap is the worst-case pairwise rate gap of Ghosh et al.: the
// maximum over outcomes of max_g P(y|s) − min_g P(y|s) across supported
// groups — the total-variation counterpart of ε's log-ratio, defined on
// any outcome vocabulary.
type WorstGap struct{}

// Key implements core.Metric.
func (WorstGap) Key() string { return "worst_gap" }

// Describe implements core.Metric.
func (WorstGap) Describe() string {
	return "worst-case pairwise rate gap: max over outcomes of max−min P(y|s) (Ghosh et al., arXiv:2101.01673)"
}

// HigherIsWorse implements core.Metric.
func (WorstGap) HigherIsWorse() bool { return true }

// WorstValue implements core.Metric.
func (WorstGap) WorstValue() float64 { return 1 }

// Applicable implements core.Metric.
func (WorstGap) Applicable(space *core.Space, outcomes []string) error {
	if space == nil {
		return fmt.Errorf("fairmetrics: worst_gap: nil space")
	}
	if len(outcomes) < 2 {
		return fmt.Errorf("fairmetrics: worst_gap: need at least two outcomes, got %d", len(outcomes))
	}
	return nil
}

// Eval implements core.Metric.
func (WorstGap) Eval(c *core.CPT) (core.MetricResult, error) {
	if err := c.Validate(); err != nil {
		return core.MetricResult{}, err
	}
	res := core.MetricResult{Finite: true}
	for y := 0; y < c.NumOutcomes(); y++ {
		hiG, loG, hiP, loP := outcomeRates(c, y)
		gapStep(&res, y, hiG, loG, hiP, loP)
	}
	return res, nil
}

// EvalExtrema implements core.ExtremaMetric.
//
//df:hotpath
func (WorstGap) EvalExtrema(x *core.RateExtrema) (core.MetricResult, error) {
	if err := x.Validate(); err != nil {
		return core.MetricResult{}, err
	}
	res := core.MetricResult{Finite: true}
	for y := range x.Hi {
		gapStep(&res, y, x.HiG[y], x.LoG[y], x.Hi[y], x.Lo[y])
	}
	return res, nil
}

// gapStep folds one outcome's rate spread into the running worst gap.
// y == 0 seeds the witness so a perfectly uniform table still names
// real supported groups instead of the zero value.
func gapStep(res *core.MetricResult, y, hiG, loG int, hiP, loP float64) {
	if d := hiP - loP; y == 0 || d > res.Value {
		res.Value = d
		res.Witness = core.Witness{Outcome: y, GroupHi: hiG, GroupLo: loG}
	}
}

// WorstRatio is the worst-case pairwise ratio of Ghosh et al. restricted
// to the positive outcome of a binary vocabulary: min_g P(1|s) divided
// by max_g P(1|s) over supported groups. It generalizes the EEOC "80%
// rule" disparate-impact ratio to every intersectional pair — lower is
// worse (1 = parity, 0 = some group never receives the positive
// outcome another group does). When no group receives the positive
// outcome the ratio is 1 (nothing is being distributed unequally).
//
// Restricting to the positive outcome is deliberate: the all-outcomes
// worst-case ratio of a binary table is exactly exp(−ε), redundant with
// the ε the pipeline already reports.
type WorstRatio struct{}

// Key implements core.Metric.
func (WorstRatio) Key() string { return "worst_ratio" }

// Describe implements core.Metric.
func (WorstRatio) Describe() string {
	return "worst-case pairwise positive-rate ratio: min/max P(pos|s), the 80% rule over all intersections (Ghosh et al., arXiv:2101.01673)"
}

// HigherIsWorse implements core.Metric: smaller ratios are worse.
func (WorstRatio) HigherIsWorse() bool { return false }

// WorstValue implements core.Metric.
func (WorstRatio) WorstValue() float64 { return 0 }

// Applicable implements core.Metric.
func (WorstRatio) Applicable(space *core.Space, outcomes []string) error {
	return binaryOnly("worst_ratio", space, outcomes)
}

// Eval implements core.Metric.
func (WorstRatio) Eval(c *core.CPT) (core.MetricResult, error) {
	if err := c.Validate(); err != nil {
		return core.MetricResult{}, err
	}
	return worstRatio(outcomeRates(c, 1)), nil
}

// EvalExtrema implements core.ExtremaMetric.
//
//df:hotpath
func (WorstRatio) EvalExtrema(x *core.RateExtrema) (core.MetricResult, error) {
	if err := x.Validate(); err != nil {
		return core.MetricResult{}, err
	}
	return worstRatio(x.HiG[1], x.LoG[1], x.Hi[1], x.Lo[1]), nil
}

// worstRatio scores the positive outcome's extreme rates, shared by Eval
// and EvalExtrema.
func worstRatio(hiG, loG int, hiP, loP float64) core.MetricResult {
	w := core.Witness{Outcome: 1, GroupHi: hiG, GroupLo: loG}
	if hiP == 0 {
		return core.MetricResult{Value: 1, Witness: w, Finite: true}
	}
	return core.MetricResult{Value: loP / hiP, Witness: w, Finite: true}
}

// AlphaIntersectional is the α-intersectional family of Maheshwari et
// al. ("Fair Without Leveling Down"): with m and M the minimum and
// maximum positive-outcome rates over supported groups,
//
//	value = α·(1 − m) + (1 − α)·(M − m).
//
// α interpolates between pure worst-case gap minimization (α = 0, where
// leveling everyone down to the worst-off group scores perfectly) and
// the worst-off group's absolute shortfall (α = 1, which leveling down
// can only worsen) — the same trade-off the repairer's leveling-down
// guard enforces, promoted to a first-class measured metric.
type AlphaIntersectional struct {
	// Alpha is the interpolation weight in [0, 1]; 0.5 balances the
	// gap and the worst-off shortfall.
	Alpha float64
}

// Key implements core.Metric.
func (AlphaIntersectional) Key() string { return "alpha_if" }

// Describe implements core.Metric.
func (m AlphaIntersectional) Describe() string {
	return fmt.Sprintf("α-intersectional fairness, α=%g: α·(1−min rate) + (1−α)·(max−min rate) — penalizes leveling down (Maheshwari et al., arXiv:2305.12495)", m.Alpha)
}

// HigherIsWorse implements core.Metric.
func (AlphaIntersectional) HigherIsWorse() bool { return true }

// WorstValue implements core.Metric.
func (AlphaIntersectional) WorstValue() float64 { return 1 }

// Applicable implements core.Metric.
func (m AlphaIntersectional) Applicable(space *core.Space, outcomes []string) error {
	if !(m.Alpha >= 0 && m.Alpha <= 1) {
		return fmt.Errorf("fairmetrics: alpha_if: alpha %v outside [0,1]", m.Alpha)
	}
	return binaryOnly("alpha_if", space, outcomes)
}

// Eval implements core.Metric.
func (m AlphaIntersectional) Eval(c *core.CPT) (core.MetricResult, error) {
	if err := c.Validate(); err != nil {
		return core.MetricResult{}, err
	}
	return m.value(outcomeRates(c, 1)), nil
}

// EvalExtrema implements core.ExtremaMetric.
//
//df:hotpath
func (m AlphaIntersectional) EvalExtrema(x *core.RateExtrema) (core.MetricResult, error) {
	if err := x.Validate(); err != nil {
		return core.MetricResult{}, err
	}
	return m.value(x.HiG[1], x.LoG[1], x.Hi[1], x.Lo[1]), nil
}

// value scores the positive outcome's extreme rates, shared by Eval and
// EvalExtrema.
func (m AlphaIntersectional) value(hiG, loG int, hiP, loP float64) core.MetricResult {
	return core.MetricResult{
		Value:   m.Alpha*(1-loP) + (1-m.Alpha)*(hiP-loP),
		Witness: core.Witness{Outcome: 1, GroupHi: hiG, GroupLo: loG},
		Finite:  true,
	}
}

// SubgroupParity is Kearns et al.'s statistical-parity subgroup
// fairness computed from a counts snapshot: the maximum over supported
// groups of P(g) · |P(ŷ=1) − P(ŷ=1|g)|, with P(g) the group's share of
// the table mass — violations on tiny intersections are discounted by
// their prevalence.
type SubgroupParity struct{}

// Key implements core.Metric.
func (SubgroupParity) Key() string { return "subgroup" }

// Describe implements core.Metric.
func (SubgroupParity) Describe() string {
	return "statistical-parity subgroup fairness: max over groups of P(g)·|P(pos) − P(pos|g)| (Kearns et al., ICML 2018)"
}

// HigherIsWorse implements core.Metric.
func (SubgroupParity) HigherIsWorse() bool { return true }

// WorstValue implements core.Metric.
func (SubgroupParity) WorstValue() float64 { return 1 }

// Applicable implements core.Metric.
func (SubgroupParity) Applicable(space *core.Space, outcomes []string) error {
	return binaryOnly("subgroup", space, outcomes)
}

// Eval implements core.Metric.
func (SubgroupParity) Eval(c *core.CPT) (core.MetricResult, error) {
	if err := c.Validate(); err != nil {
		return core.MetricResult{}, err
	}
	var total, overall float64
	for g := 0; g < c.Space().Size(); g++ {
		w := c.Weight(g)
		if w <= 0 {
			continue
		}
		total += w
		overall += w * c.Prob(g, 1)
	}
	overall /= total
	res := core.MetricResult{Witness: core.Witness{Outcome: 1, GroupHi: -1, GroupLo: -1}, Finite: true}
	for g := 0; g < c.Space().Size(); g++ {
		w := c.Weight(g)
		if w <= 0 {
			continue
		}
		rate := c.Prob(g, 1)
		if v := (w / total) * math.Abs(overall-rate); v > res.Value {
			// The deviating group is both ends of the witness pair: the
			// comparison is group vs. population, not group vs. group.
			res.Value = v
			res.Witness = core.Witness{Outcome: 1, GroupHi: g, GroupLo: g}
		}
	}
	if res.Witness.GroupHi < 0 {
		// No group deviates from the overall rate: witness the first
		// supported group for determinism.
		for g := 0; g < c.Space().Size(); g++ {
			if c.Weight(g) > 0 {
				res.Witness = core.Witness{Outcome: 1, GroupHi: g, GroupLo: g}
				break
			}
		}
	}
	return res, nil
}

// DemographicParity is the Section 7.1 demographic-parity baseline
// (Dwork et al.) as a counts metric: the spread max − min of
// positive-outcome rates across supported groups — the same quantity
// DemographicParityGap measures from prediction slices.
type DemographicParity struct{}

// Key implements core.Metric.
func (DemographicParity) Key() string { return "demographic_parity" }

// Describe implements core.Metric.
func (DemographicParity) Describe() string {
	return "demographic parity gap: max − min P(pos|s) across groups (Dwork et al., ITCS 2012)"
}

// HigherIsWorse implements core.Metric.
func (DemographicParity) HigherIsWorse() bool { return true }

// WorstValue implements core.Metric.
func (DemographicParity) WorstValue() float64 { return 1 }

// Applicable implements core.Metric.
func (DemographicParity) Applicable(space *core.Space, outcomes []string) error {
	return binaryOnly("demographic_parity", space, outcomes)
}

// Eval implements core.Metric.
func (DemographicParity) Eval(c *core.CPT) (core.MetricResult, error) {
	if err := c.Validate(); err != nil {
		return core.MetricResult{}, err
	}
	return parityGap(outcomeRates(c, 1)), nil
}

// EvalExtrema implements core.ExtremaMetric.
//
//df:hotpath
func (DemographicParity) EvalExtrema(x *core.RateExtrema) (core.MetricResult, error) {
	if err := x.Validate(); err != nil {
		return core.MetricResult{}, err
	}
	return parityGap(x.HiG[1], x.LoG[1], x.Hi[1], x.Lo[1]), nil
}

// parityGap scores the positive outcome's extreme rates, shared by Eval
// and EvalExtrema.
func parityGap(hiG, loG int, hiP, loP float64) core.MetricResult {
	return core.MetricResult{
		Value:   hiP - loP,
		Witness: core.Witness{Outcome: 1, GroupHi: hiG, GroupLo: loG},
		Finite:  true,
	}
}
