package dist

import (
	"math"
	"testing"
)

func TestBatchPDFMatchesScalar(t *testing.T) {
	dists := map[string]Dist{
		"normal":  Normal{Mu: 10, Sigma: 2},
		"laplace": Laplace{Mu: -1, B: 0.5},
	}
	xs := Grid(-5, 20, 1001)
	for name, d := range dists {
		got := BatchPDF(d, xs, nil)
		if len(got) != len(xs) {
			t.Fatalf("%s: BatchPDF returned %d values for %d points", name, len(got), len(xs))
		}
		for i, x := range xs {
			if want := d.PDF(x); !ulpClose(got[i], want) {
				t.Fatalf("%s: BatchPDF[%d] = %v, scalar PDF(%v) = %v", name, i, got[i], x, want)
			}
		}
	}
}

// ulpClose reports whether the batch kernel's value agrees with the
// scalar one up to the reciprocal-multiply rounding the kernels trade
// for speed. In the far tail the exponent magnifies that last-ulp
// argument difference by |x-mu|/scale, so allow ~1e-13 relative error —
// still orders of magnitude below any real defect.
func ulpClose(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-13*math.Abs(want)
}

func TestBatchPDFReusesDst(t *testing.T) {
	d := Normal{Mu: 0, Sigma: 1}
	xs := Grid(-3, 3, 64)
	dst := make([]float64, len(xs))
	if got := BatchPDF(d, xs, dst); &got[0] != &dst[0] {
		t.Error("BatchPDF did not evaluate into the provided dst")
	}
	defer func() {
		if recover() == nil {
			t.Error("BatchPDF accepted a dst of mismatched length")
		}
	}()
	BatchPDF(d, xs, make([]float64, 3))
}

func TestGrid(t *testing.T) {
	xs := Grid(4, 16, 49)
	if len(xs) != 49 {
		t.Fatalf("Grid returned %d points, want 49", len(xs))
	}
	if xs[0] != 4 || xs[48] != 16 {
		t.Fatalf("Grid endpoints = (%v, %v), want (4, 16)", xs[0], xs[48])
	}
	for i := 1; i < len(xs); i++ {
		if math.Abs(xs[i]-xs[i-1]-0.25) > 1e-12 {
			t.Fatalf("Grid step at %d is %v, want 0.25", i, xs[i]-xs[i-1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Grid accepted n < 2")
		}
	}()
	Grid(0, 1, 1)
}

func TestDensityGrid(t *testing.T) {
	d := Normal{Mu: 10, Sigma: 1}
	xs, pdf := DensityGrid(d, 4, 16, 49)
	if len(xs) != len(pdf) {
		t.Fatalf("DensityGrid lengths differ: %d vs %d", len(xs), len(pdf))
	}
	for i, x := range xs {
		if !ulpClose(pdf[i], d.PDF(x)) {
			t.Fatalf("DensityGrid[%d] = %v, want %v", i, pdf[i], d.PDF(x))
		}
	}
	// The density integrates to ~1 over a ±6σ window (trapezoid rule).
	var mass float64
	for i := 1; i < len(xs); i++ {
		mass += 0.5 * (pdf[i] + pdf[i-1]) * (xs[i] - xs[i-1])
	}
	if math.Abs(mass-1) > 1e-3 {
		t.Errorf("density mass over the window = %v, want ~1", mass)
	}
}
