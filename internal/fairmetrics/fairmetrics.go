// Package fairmetrics implements the baseline fairness definitions the
// paper positions differential fairness against (Section 7.1):
// demographic parity (Dwork et al.), the 80%-rule disparate-impact ratio
// and statistical-parity subgroup fairness (Kearns et al.) as core.Metric
// counts metrics (counts.go), beside the worst-case and α-intersectional
// families. Equalized odds and equality of opportunity (Hardt et al.)
// are demographic parity within the true-label strata of a
// core.LabeledCounts table.
//
// Score calibration is the one audit counts cannot express:
// GroupCalibrationGap, in the spirit of multicalibration (Hébert-Johnson
// et al.), reads parallel slices of groups, labels and scores.
package fairmetrics

import (
	"fmt"

	"repro/internal/classify"
)

// GroupCalibrationGap audits calibration per group, multicalibration
// style: it bins scores within each group and returns the worst
// count-weighted expected calibration error across groups. Scores must
// lie in [0, 1].
func GroupCalibrationGap(groups []int, numGroups int, yTrue []int, scores []float64, nBins int) (float64, error) {
	if len(groups) != len(yTrue) || len(groups) != len(scores) {
		return 0, fmt.Errorf("fairmetrics: input length mismatch")
	}
	if numGroups < 2 {
		return 0, fmt.Errorf("fairmetrics: need at least 2 groups")
	}
	var worst float64
	for g := 0; g < numGroups; g++ {
		var ys []int
		var ss []float64
		for i, gi := range groups {
			if gi == g {
				ys = append(ys, yTrue[i])
				ss = append(ss, scores[i])
			}
		}
		if len(ys) == 0 {
			continue
		}
		bins, err := classify.Calibration(ys, ss, nBins)
		if err != nil {
			return 0, fmt.Errorf("fairmetrics: group %d: %w", g, err)
		}
		if ece := classify.ExpectedCalibrationError(bins); ece > worst {
			worst = ece
		}
	}
	return worst, nil
}
