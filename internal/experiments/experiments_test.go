package experiments

import (
	"context"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/census"
	"repro/internal/classify"
)

// fastLogistic is a reduced training budget for test speed; the shapes
// under test are robust to it.
var fastLogistic = classify.LogisticConfig{Epochs: 80, LearningRate: 0.8, L2: 1e-4, Momentum: 0.9}

func TestFigure2MatchesPaperExactly(t *testing.T) {
	r, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"P(yes|1)", r.PYes[0], 0.3085, 5e-5},
		{"P(yes|2)", r.PYes[1], 0.9332, 5e-5},
		{"P(no|1)", r.PNo[0], 0.6915, 5e-5},
		{"P(no|2)", r.PNo[1], 0.0668, 5e-5},
		{"log ratio no", r.LogRatioNo, 2.337, 5e-4},
		{"log ratio yes", r.LogRatioYes, -1.107, 5e-4},
		{"epsilon", r.Epsilon, 2.337, 5e-4},
		{"e^-eps", r.BoundLo, 0.0966, 5e-4},
		{"e^+eps", r.BoundHi, 10.35, 5e-2},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %v, paper %v", c.name, c.got, c.want)
		}
	}
	if len(r.Densities) == 0 {
		t.Error("no density samples produced")
	}
	out := r.String()
	for _, want := range []string{"2.337", "0.309", "0.933"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered Figure 2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable1MatchesPaperExactly(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.EpsIntersectional-1.511) > 5e-4 {
		t.Errorf("intersectional eps = %v", r.EpsIntersectional)
	}
	if math.Abs(r.EpsGender-0.2329) > 5e-4 {
		t.Errorf("gender eps = %v", r.EpsGender)
	}
	if math.Abs(r.EpsRace-0.8667) > 5e-4 {
		t.Errorf("race eps = %v", r.EpsRace)
	}
	if math.Abs(r.TheoremBound-3.022) > 1e-3 {
		t.Errorf("2eps bound = %v", r.TheoremBound)
	}
	// The probability cells of Table 1.
	if math.Abs(r.AdmitProb[0][0]-81.0/87) > 1e-12 {
		t.Errorf("P(admit|A,1) = %v", r.AdmitProb[0][0])
	}
	if math.Abs(r.OverallGender[1]-289.0/350) > 1e-12 {
		t.Errorf("P(admit|B) = %v", r.OverallGender[1])
	}
	foundGender := false
	for _, rev := range r.Reversals {
		if rev.Attr == "gender" {
			foundGender = true
		}
	}
	if !foundGender {
		t.Error("gender Simpson reversal not detected")
	}
	if !strings.Contains(r.String(), "1.511") {
		t.Error("rendered Table 1 missing epsilon")
	}
}

func TestTable2ShapeOnDefaultConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size census generation")
	}
	r, err := Table2(census.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(r.Rows))
	}
	// Rows are sorted by measured epsilon; the paper's ladder has the
	// same end points.
	if r.Rows[0].Subset != "nationality" {
		t.Errorf("smallest subset = %s, want nationality", r.Rows[0].Subset)
	}
	if r.Rows[6].Subset != "gender,race,nationality" {
		t.Errorf("largest subset = %s, want full intersection", r.Rows[6].Subset)
	}
	for _, row := range r.Rows {
		if !row.Finite {
			t.Errorf("subset %s has infinite empirical epsilon", row.Subset)
		}
		if row.Paper == 0 {
			t.Errorf("subset %s missing paper value", row.Subset)
		}
		if math.Abs(row.Measured-row.Paper) > 0.6 {
			t.Errorf("subset %s: measured %.3f vs paper %.3f", row.Subset, row.Measured, row.Paper)
		}
		if !(row.Smoothed > 0) || math.IsInf(row.Smoothed, 0) {
			t.Errorf("subset %s: smoothed epsilon %v invalid", row.Subset, row.Smoothed)
		}
	}
	if !strings.Contains(r.String(), "nationality") {
		t.Error("rendered Table 2 missing subsets")
	}
}

func TestTable3ShapeOnSmallConfig(t *testing.T) {
	cfg := Table3Config{
		Census:   census.Config{TrainN: 8000, TestN: 4000, Seed: 58},
		Logistic: fastLogistic,
		Alpha:    1,
	}
	r, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(r.Rows))
	}
	byKey := map[string]Table3Row{}
	for _, row := range r.Rows {
		byKey[row.Features] = row
		// Error rates must be in a plausible band around the paper's 15%.
		if row.ErrorRate < 0.08 || row.ErrorRate > 0.25 {
			t.Errorf("row %s error rate %.3f out of band", row.Features, row.ErrorRate)
		}
		// Amplification is consistent with its definition.
		if math.Abs(row.Amplification-(row.Epsilon-r.TestDataEpsilon)) > 1e-12 {
			t.Errorf("row %s amplification inconsistent", row.Features)
		}
	}
	// Headline shape: withholding all protected attributes yields the
	// (near-)lowest ε; using all three yields a higher ε. One 8,000-row
	// sample does not show it reliably: a sparse group can decide both
	// values and tie them, and over census seeds 40–69 the order held in
	// 25 of 30 samples. So the order is checked on the mean over this
	// sample and the four after it.
	none := byKey["none"].Epsilon
	sumNone, sumAll := none, byKey["gender,race,nationality"].Epsilon
	for seed := cfg.Census.Seed + 1; seed < cfg.Census.Seed+5; seed++ {
		more := cfg
		more.Census.Seed = seed
		r, err := Table3(more)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Rows {
			switch row.Features {
			case "none":
				sumNone += row.Epsilon
			case "gender,race,nationality":
				sumAll += row.Epsilon
			}
		}
	}
	if sumNone >= sumAll {
		t.Errorf("mean eps(none)=%.3f over five samples should be below mean eps(all)=%.3f", sumNone/5, sumAll/5)
	}
	for key, row := range byKey {
		if row.Epsilon < none-0.30 {
			t.Errorf("config %s has eps %.3f far below the withheld configuration %.3f", key, row.Epsilon, none)
		}
	}
	if r.TestDataEpsilon < 1.4 || r.TestDataEpsilon > 3.2 {
		t.Errorf("test-data eps %.3f out of band (paper 2.06)", r.TestDataEpsilon)
	}
	if !strings.Contains(r.String(), "test-data eps") {
		t.Error("rendered Table 3 missing test-data epsilon")
	}
}

func TestTable3Validation(t *testing.T) {
	cfg := Table3Config{Census: census.SmallConfig(), Alpha: 0}
	if _, err := Table3(cfg); err == nil {
		t.Error("alpha=0 accepted")
	}
}

func TestRandomizedResponseExperiment(t *testing.T) {
	r, err := RandomizedResponse()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if math.Abs(row.Measured-row.Analytic) > 1e-9 {
			t.Errorf("P=%v: measured %v != analytic %v", row.P, row.Measured, row.Analytic)
		}
	}
	if !strings.Contains(r.String(), "1.099") {
		t.Errorf("rendered RR table missing ln 3:\n%s", r.String())
	}
}

func TestSmoothingSweepMonotoneTail(t *testing.T) {
	r, err := SmoothingSweep(census.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 4 {
		t.Fatalf("too few rows: %d", len(r.Rows))
	}
	// Strong smoothing must pull epsilon down toward 0 relative to weak
	// smoothing.
	first := r.Rows[1].Epsilon // alpha = 0.1
	last := r.Rows[len(r.Rows)-1].Epsilon
	if last >= first {
		t.Errorf("alpha=20 eps %.3f not below alpha=0.1 eps %.3f", last, first)
	}
	_ = r.String()
}

func TestCredibleIntervalExperiment(t *testing.T) {
	r, err := CredibleInterval(context.Background(), census.SmallConfig(), 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.Posterior.Lo <= r.Posterior.Median && r.Posterior.Median <= r.Posterior.Hi) {
		t.Fatalf("posterior quantiles out of order: %+v", r.Posterior)
	}
	// The point estimate should be inside (or at least near) the 95% interval.
	if r.PointEps < r.Posterior.Lo-0.5 || r.PointEps > r.Posterior.Hi+0.5 {
		t.Errorf("point eps %.3f far outside credible interval [%.3f, %.3f]",
			r.PointEps, r.Posterior.Lo, r.Posterior.Hi)
	}
	if !strings.Contains(r.String(), "credible interval") {
		t.Error("rendered credible result missing interval")
	}
}

func TestRegularizerSweepTradeoff(t *testing.T) {
	cfg := census.Config{TrainN: 6000, TestN: 3000, Seed: 58}
	r, err := RegularizerSweep(cfg, fastLogistic, []float64{0, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[1].SoftEps >= r.Rows[0].SoftEps {
		t.Errorf("lambda=3 soft eps %.3f not below lambda=0 %.3f", r.Rows[1].SoftEps, r.Rows[0].SoftEps)
	}
	_ = r.String()
}

func TestLaplaceSweepShape(t *testing.T) {
	r, err := LaplaceSweep()
	if err != nil {
		t.Fatal(err)
	}
	// Epsilon decreases monotonically with noise; utility degrades toward 0.5.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Epsilon >= r.Rows[i-1].Epsilon {
			t.Errorf("eps not decreasing at scale %v", r.Rows[i].Scale)
		}
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if math.Abs(first.Epsilon-2.337) > 5e-3 {
		t.Errorf("no-noise eps = %v, want the Fig. 2 value", first.Epsilon)
	}
	if !(last.Utility < first.Utility) {
		t.Errorf("noise should reduce the qualified group's hire rate: %v vs %v", last.Utility, first.Utility)
	}
	_ = r.String()
}

func TestMetricComparisonExperiment(t *testing.T) {
	cfg := census.Config{TrainN: 6000, TestN: 3000, Seed: 58}
	r, err := MetricComparison(cfg, fastLogistic)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epsilon <= 0 {
		t.Errorf("epsilon = %v", r.Epsilon)
	}
	if r.DemographicParity <= 0 || r.DemographicParity > 1 {
		t.Errorf("demographic parity gap = %v", r.DemographicParity)
	}
	// The census classifier violates the 80% rule across intersections
	// (a tiny group may even receive zero positive predictions, ratio 0).
	if !(r.DisparateImpact >= 0 && r.DisparateImpact < 0.8) {
		t.Errorf("disparate impact ratio = %v (expect a violation on census)", r.DisparateImpact)
	}
	out := r.String()
	if !strings.Contains(out, "differential fairness") || !strings.Contains(out, "utility disparity") {
		t.Errorf("rendered comparison incomplete:\n%s", out)
	}
}

func TestWriteFigures(t *testing.T) {
	dir := t.TempDir()
	cfg := census.Config{TrainN: 4000, TestN: 2000, Seed: 58}
	paths, err := WriteFigures(dir, cfg, fastLogistic)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("wrote %d figures, want 4", len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "<svg") {
			t.Errorf("%s is not SVG", p)
		}
		if len(data) < 500 {
			t.Errorf("%s suspiciously small (%d bytes)", p, len(data))
		}
	}
}

func TestEqualizedOddsExperiment(t *testing.T) {
	cfg := census.Config{TrainN: 6000, TestN: 3000, Seed: 58}
	r, err := EqualizedOdds(cfg, fastLogistic)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.EqOddsEps <= 0 || math.IsInf(row.EqOddsEps, 0) {
			t.Errorf("%s: eq-odds eps %v invalid", row.Features, row.EqOddsEps)
		}
		// The max-over-strata equals the larger of the two strata.
		want := math.Max(row.PositiveStratumEps, row.NegativeStratumEps)
		if math.Abs(row.EqOddsEps-want) > 1e-9 {
			t.Errorf("%s: eq-odds eps %v != max of strata %v", row.Features, row.EqOddsEps, want)
		}
	}
	if !strings.Contains(r.String(), "eq-odds") {
		t.Error("rendered result incomplete")
	}
}

func TestRepairSweepExperiment(t *testing.T) {
	cfg := census.Config{TrainN: 6000, TestN: 3000, Seed: 58}
	r, err := RepairSweep(cfg, fastLogistic, []float64{1.0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.AchievedEps > row.Target+1e-6 {
			t.Errorf("target %v: achieved %v", row.Target, row.AchievedEps)
		}
	}
	// Tighter targets require at least as much movement.
	if r.Rows[1].Movement < r.Rows[0].Movement-1e-9 {
		t.Errorf("tighter target moved less: %v vs %v", r.Rows[1].Movement, r.Rows[0].Movement)
	}
	if _, err := RepairSweep(cfg, fastLogistic, []float64{-1}); err == nil {
		t.Error("negative target accepted")
	}
	_ = r.String()
}

func TestScoreDFExperiment(t *testing.T) {
	cfg := census.Config{TrainN: 6000, TestN: 3000, Seed: 58}
	r, err := ScoreDF(cfg, fastLogistic)
	if err != nil {
		t.Fatal(err)
	}
	if r.HardEps <= 0 {
		t.Errorf("hard eps = %v", r.HardEps)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Eps <= 0 || math.IsInf(row.Eps, 0) {
			t.Errorf("%d bins: eps %v invalid", row.Bins, row.Eps)
		}
	}
	// The 2-bin score DF coincides in spirit with hard decisions; finer
	// binning can only expose at least as much structure in expectation.
	if !strings.Contains(r.String(), "score distribution") {
		t.Error("rendered result incomplete")
	}
}
