package classify

import (
	"fmt"
	"math"
)

// ErrorRate returns the fraction of mismatched predictions.
func ErrorRate(yTrue, yPred []int) (float64, error) {
	if len(yTrue) != len(yPred) {
		return 0, fmt.Errorf("classify: %d labels vs %d predictions", len(yTrue), len(yPred))
	}
	if len(yTrue) == 0 {
		return 0, fmt.Errorf("classify: empty evaluation set")
	}
	var wrong int
	for i := range yTrue {
		if yTrue[i] != yPred[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(yTrue)), nil
}

// CalibrationBin summarizes predictions whose scores fall in one bin.
type CalibrationBin struct {
	Lo, Hi    float64
	Count     int
	MeanScore float64
	MeanLabel float64
}

// Calibration partitions scores into nBins equal-width bins over [0,1]
// and reports mean score vs mean label per bin. Used by the
// multicalibration-style audit in fairmetrics.
func Calibration(yTrue []int, scores []float64, nBins int) ([]CalibrationBin, error) {
	if len(yTrue) != len(scores) {
		return nil, fmt.Errorf("classify: %d labels vs %d scores", len(yTrue), len(scores))
	}
	if nBins <= 0 {
		return nil, fmt.Errorf("classify: need positive bin count")
	}
	bins := make([]CalibrationBin, nBins)
	for b := range bins {
		bins[b].Lo = float64(b) / float64(nBins)
		bins[b].Hi = float64(b+1) / float64(nBins)
	}
	for i, s := range scores {
		if s < 0 || s > 1 || math.IsNaN(s) {
			return nil, fmt.Errorf("classify: score %v at row %d outside [0,1]", s, i)
		}
		b := int(s * float64(nBins))
		if b == nBins {
			b--
		}
		bins[b].Count++
		bins[b].MeanScore += s
		bins[b].MeanLabel += float64(yTrue[i])
	}
	for b := range bins {
		if bins[b].Count > 0 {
			bins[b].MeanScore /= float64(bins[b].Count)
			bins[b].MeanLabel /= float64(bins[b].Count)
		}
	}
	return bins, nil
}

// ExpectedCalibrationError is the count-weighted mean |score − label|
// gap across bins.
func ExpectedCalibrationError(bins []CalibrationBin) float64 {
	var total, acc float64
	for _, b := range bins {
		total += float64(b.Count)
		acc += float64(b.Count) * math.Abs(b.MeanScore-b.MeanLabel)
	}
	if total == 0 {
		return 0
	}
	return acc / total
}
