package fairmetrics

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

// Two groups of 4: group 0 gets 3/4 positive predictions, group 1 gets
// 1/4. Labels arranged so TPRs and FPRs differ too.
var (
	demoGroups = []int{0, 0, 0, 0, 1, 1, 1, 1}
	demoPred   = []int{1, 1, 1, 0, 1, 0, 0, 0}
	demoTrue   = []int{1, 1, 0, 0, 1, 1, 0, 0}
)

var demoSpace = core.MustSpace(core.Attr{Name: "g", Values: []string{"0", "1"}})

// predCPT is the empirical table of predictions per group, the input
// the counts metrics score.
func predCPT(groups, preds []int) *core.CPT {
	c := core.MustCounts(demoSpace, []string{"neg", "pos"})
	for i, g := range groups {
		c.MustAdd(g, preds[i], 1)
	}
	return c.Empirical()
}

func eval(t *testing.T, m core.Metric, c *core.CPT) float64 {
	t.Helper()
	res, err := m.Eval(c)
	if err != nil {
		t.Fatal(err)
	}
	return res.Value
}

// strataGaps returns the demographic-parity gap within the positive and
// within the negative true-label stratum: Hardt et al.'s true- and
// false-positive-rate spreads.
func strataGaps(t *testing.T, groups, yTrue, preds []int) (tpr, fpr float64, err error) {
	t.Helper()
	labeled, err := core.FromLabeledObservations(demoSpace, []string{"neg", "pos"}, []string{"neg", "pos"}, groups, yTrue, preds)
	if err != nil {
		t.Fatal(err)
	}
	gap := func(label int) (float64, error) {
		stratum, err := labeled.Stratum(label)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DemographicParity{}.Eval(stratum.Empirical())
		return res.Value, err
	}
	if tpr, err = gap(1); err != nil {
		return 0, 0, err
	}
	fpr, err = gap(0)
	return tpr, fpr, err
}

func TestDemographicParity(t *testing.T) {
	if gap := eval(t, DemographicParity{}, predCPT(demoGroups, demoPred)); math.Abs(gap-0.5) > 1e-12 { // 0.75 - 0.25
		t.Fatalf("gap = %v, want 0.5", gap)
	}
}

func TestDemographicParityPerfect(t *testing.T) {
	if gap := eval(t, DemographicParity{}, predCPT([]int{0, 0, 1, 1}, []int{1, 0, 1, 0})); gap != 0 {
		t.Fatalf("gap = %v, want 0", gap)
	}
}

func TestDisparateImpactRatio(t *testing.T) {
	ratio := eval(t, WorstRatio{}, predCPT(demoGroups, demoPred))
	if math.Abs(ratio-1.0/3) > 1e-12 { // 0.25/0.75
		t.Fatalf("ratio = %v, want 1/3", ratio)
	}
	// This violates the 80% rule.
	if ratio >= 0.8 {
		t.Fatal("expected an 80%-rule violation in the fixture")
	}
	// All-negative predictions: ratio defined as 1 (no disparity).
	if ratio := eval(t, WorstRatio{}, predCPT([]int{0, 1}, []int{0, 0})); ratio != 1 {
		t.Fatalf("all-negative ratio = %v, want 1", ratio)
	}
}

func TestEqualizedOddsGap(t *testing.T) {
	tpr, fpr, err := strataGaps(t, demoGroups, demoTrue, demoPred)
	if err != nil {
		t.Fatal(err)
	}
	// Group 0: TPR=1 (2/2), FPR=0.5 (1/2). Group 1: TPR=0.5, FPR=0.
	// Gaps: TPR 0.5, FPR 0.5 → 0.5.
	if math.Abs(tpr-0.5) > 1e-12 || math.Abs(fpr-0.5) > 1e-12 {
		t.Fatalf("TPR gap = %v, FPR gap = %v, want 0.5 each", tpr, fpr)
	}
	if gap := math.Max(tpr, fpr); math.Abs(gap-0.5) > 1e-12 {
		t.Fatalf("gap = %v, want 0.5", gap)
	}
}

func TestEqualOpportunityGap(t *testing.T) {
	tpr, _, err := strataGaps(t, demoGroups, demoTrue, demoPred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tpr-0.5) > 1e-12 {
		t.Fatalf("gap = %v, want 0.5 (TPR 1 vs 0.5)", tpr)
	}
	// No positives anywhere: the positive stratum has no supported
	// groups to compare.
	if _, _, err := strataGaps(t, []int{0, 1}, []int{0, 0}, []int{0, 1}); !errors.Is(err, core.ErrDegenerateSupport) {
		t.Fatalf("no-positives stratum: err = %v, want ErrDegenerateSupport", err)
	}
}

func TestSubgroupFairnessViolation(t *testing.T) {
	// Overall rate 0.5; each group has weight 0.5 and gap 0.25 → 0.125.
	if v := eval(t, SubgroupParity{}, predCPT(demoGroups, demoPred)); math.Abs(v-0.125) > 1e-12 {
		t.Fatalf("violation = %v, want 0.125", v)
	}
}

// TestSubgroupFairnessDiscountsSmallGroups: the same rate gap on a tiny
// subgroup scores lower — the property that distinguishes Kearns et al.
// from per-group parity, and the behaviour DF explicitly does NOT share.
func TestSubgroupFairnessDiscountsSmallGroups(t *testing.T) {
	// 10 rows; small group = 1 row with rate gap 1.
	groups := []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	pred := []int{1, 1, 1, 1, 0, 0, 0, 0, 0, 1}
	small := eval(t, SubgroupParity{}, predCPT(groups, pred))
	big := eval(t, SubgroupParity{}, predCPT(demoGroups, demoPred))
	if small >= big {
		t.Fatalf("small-group violation %v should be discounted below %v", small, big)
	}
}

func TestGroupCalibrationGap(t *testing.T) {
	groups := []int{0, 0, 0, 0, 1, 1, 1, 1}
	yTrue := []int{1, 1, 0, 0, 1, 0, 0, 0}
	// Group 0 scores are perfectly calibrated; group 1 systematically
	// overestimates.
	scores := []float64{0.9, 0.9, 0.1, 0.1, 0.9, 0.9, 0.9, 0.9}
	gap, err := GroupCalibrationGap(groups, 2, yTrue, scores, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Group 1: one bin, mean score 0.9, mean label 0.25 → ECE 0.65.
	if math.Abs(gap-0.65) > 1e-9 {
		t.Fatalf("gap = %v, want 0.65", gap)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := GroupCalibrationGap([]int{0, 1}, 2, []int{1}, []float64{0.5, 0.5}, 2); err == nil {
		t.Error("calibration length mismatch accepted")
	}
	if _, err := GroupCalibrationGap([]int{0, 1}, 1, []int{1, 0}, []float64{0.5, 0.5}, 2); err == nil {
		t.Error("single-group calibration accepted")
	}
}
