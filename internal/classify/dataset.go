// Package classify is the machine-learning substrate of the case study
// (paper Section 6): a from-scratch binary logistic regression trained
// with batch gradient descent, its error rate and calibration, and a
// differential-fairness-regularized logistic regression implementing the
// learning-algorithm direction the paper lists as future work (Section
// 8, following Berk et al.).
package classify

import "fmt"

// Dataset is a dense feature matrix with binary labels.
type Dataset struct {
	X            [][]float64
	Y            []int // 0 or 1
	FeatureNames []string
}

// NewDataset validates and wraps the inputs.
func NewDataset(x [][]float64, y []int, featureNames []string) (Dataset, error) {
	if len(x) != len(y) {
		return Dataset{}, fmt.Errorf("classify: %d feature rows for %d labels", len(x), len(y))
	}
	if len(x) == 0 {
		return Dataset{}, fmt.Errorf("classify: empty dataset")
	}
	width := len(x[0])
	if featureNames != nil && len(featureNames) != width {
		return Dataset{}, fmt.Errorf("classify: %d feature names for width %d", len(featureNames), width)
	}
	for i, row := range x {
		if len(row) != width {
			return Dataset{}, fmt.Errorf("classify: row %d has width %d, want %d", i, len(row), width)
		}
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return Dataset{}, fmt.Errorf("classify: label %d at row %d is not binary", label, i)
		}
	}
	return Dataset{X: x, Y: y, FeatureNames: featureNames}, nil
}

// Len returns the number of rows.
func (d Dataset) Len() int { return len(d.Y) }

// Width returns the number of features.
func (d Dataset) Width() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// PositiveRate returns the fraction of positive labels.
func (d Dataset) PositiveRate() float64 {
	if len(d.Y) == 0 {
		return 0
	}
	var pos int
	for _, y := range d.Y {
		pos += y
	}
	return float64(pos) / float64(len(d.Y))
}
