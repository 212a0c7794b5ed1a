package classify

import (
	"math"
	"testing"
)

func TestErrorRate(t *testing.T) {
	got, err := ErrorRate([]int{1, 0, 1, 1}, []int{1, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Fatalf("error rate = %v, want 0.5", got)
	}
	if _, err := ErrorRate([]int{1}, []int{1, 0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ErrorRate(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCalibrationBins(t *testing.T) {
	y := []int{0, 1, 1, 1}
	scores := []float64{0.1, 0.9, 0.95, 0.85}
	bins, err := Calibration(y, scores, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bins[0].Count != 1 || bins[1].Count != 3 {
		t.Fatalf("bin counts %d/%d", bins[0].Count, bins[1].Count)
	}
	if bins[0].MeanLabel != 0 {
		t.Errorf("low-bin mean label = %v", bins[0].MeanLabel)
	}
	if bins[1].MeanLabel != 1 {
		t.Errorf("high-bin mean label = %v", bins[1].MeanLabel)
	}
	if math.Abs(bins[1].MeanScore-0.9) > 1e-12 {
		t.Errorf("high-bin mean score = %v", bins[1].MeanScore)
	}
}

func TestCalibrationEdgeScores(t *testing.T) {
	bins, err := Calibration([]int{1, 0}, []float64{1.0, 0.0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bins[3].Count != 1 || bins[0].Count != 1 {
		t.Fatal("boundary scores mis-binned")
	}
}

func TestCalibrationValidation(t *testing.T) {
	if _, err := Calibration([]int{1}, []float64{0.5, 0.5}, 2); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Calibration([]int{1}, []float64{0.5}, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := Calibration([]int{1}, []float64{1.5}, 2); err == nil {
		t.Error("out-of-range score accepted")
	}
}

func TestExpectedCalibrationError(t *testing.T) {
	bins := []CalibrationBin{
		{Count: 2, MeanScore: 0.2, MeanLabel: 0.1},
		{Count: 2, MeanScore: 0.8, MeanLabel: 0.9},
	}
	if got := ExpectedCalibrationError(bins); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("ECE = %v, want 0.1", got)
	}
	if got := ExpectedCalibrationError(nil); got != 0 {
		t.Fatalf("empty ECE = %v", got)
	}
}
