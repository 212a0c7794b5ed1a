package dist

// BatchPDF evaluates d.PDF at every point of xs into dst and returns
// dst. When dst is nil a new slice is allocated; otherwise its length
// must equal len(xs). Each family's kernel hoists per-point divisions
// and normalizing constants out of the loop, so results agree with the
// scalar PDF up to the last ulps.
func BatchPDF(d Dist, xs, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(xs))
	}
	if len(dst) != len(xs) {
		panic("dist: BatchPDF dst length does not match xs")
	}
	d.batchPDF(xs, dst)
	return dst
}

// Grid returns n evenly spaced points from lo to hi inclusive. n must be
// at least 2 (the two endpoints).
func Grid(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("dist: Grid needs at least 2 points")
	}
	xs := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
	}
	xs[n-1] = hi // exact endpoint regardless of rounding
	return xs
}

// DensityGrid evaluates the density of d on an n-point grid over
// [lo, hi] via the batched path, returning the grid and the densities.
// It is the building block for density plots (experiments Figure 2).
func DensityGrid(d Dist, lo, hi float64, n int) (xs, pdf []float64) {
	xs = Grid(lo, hi, n)
	return xs, BatchPDF(d, xs, nil)
}
