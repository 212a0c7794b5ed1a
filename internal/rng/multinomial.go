package rng

import "math"

// Binomial returns a draw from Binomial(n, p): the number of successes in
// n independent trials of probability p. It runs in O(1) expected time
// when n·min(p,1−p) is large (Hörmann's BTRS transformed-rejection
// sampler, 1993) and O(n·p) expected time otherwise (CDF inversion), so
// conditional-binomial multinomial splitting over k cells costs O(k)
// rather than O(n) category draws. BTRS's setup is a square root and two
// divisions, which matters there: every call of the split has a fresh
// (n, p). It panics on n < 0 or p outside [0, 1].
//
//df:hotpath
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	if !(p >= 0 && p <= 1) {
		panic("rng: Binomial with p outside [0,1]")
	}
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	// Sample with success probability q = min(p, 1-p) and mirror at the
	// end; both samplers below assume q <= 1/2.
	q := p
	flipped := false
	if q > 0.5 {
		q = 1 - q
		flipped = true
	}
	var k int
	if float64(n)*q < btrsThreshold {
		k = r.binomialInversion(n, q)
	} else {
		k = r.binomialBTRS(n, q)
	}
	if flipped {
		k = n - k
	}
	return k
}

// btrsThreshold is the n·p value from which BTRS is used: Hörmann
// states its constants for n·p ≥ 10.
const btrsThreshold = 10

// binomialInversion is the BINV algorithm: walk the CDF from 0, taking
// O(n·p) expected steps. Requires 0 < p <= 1/2. Since it is only called
// with n·p < btrsThreshold, q^n = exp(n·log1p(−p)) ≥ exp(−2·btrsThreshold)
// cannot underflow.
//
//df:hotpath
func (r *RNG) binomialInversion(n int, p float64) int {
	q := 1 - p
	s := p / q
	a := float64(n+1) * s
	for {
		f := math.Exp(float64(n) * math.Log1p(-p)) // q^n, robust for tiny p
		u := r.Float64()
		x := 0
		for u > f {
			u -= f
			x++
			if x > n {
				break // float round-off exhausted the pmf mass: redraw
			}
			f *= a/float64(x) - s
		}
		if x <= n {
			return x
		}
	}
}

// binomialBTRS is Hörmann's BTRS ("The generation of binomial random
// variates", J. Statist. Comput. Simul. 46, 1993): transformed
// rejection with a squeeze. A uniform pair (u, v) maps through a
// hat built around the mean to a candidate k; a box around the hat's
// centre accepts most pairs at once, and the rest are accepted when
// ln(v·α/(a/us² + b)) ≤ ln f(k)/f(m), the log-ratio of the pmf at k to
// the pmf at the mode m. Requires 0 < p <= 1/2 and n·p >= btrsThreshold.
//
//df:hotpath
func (r *RNG) binomialBTRS(n int, p float64) int {
	nf := float64(n)
	spq := math.Sqrt(nf * p * (1 - p))
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if k < 0 || k > nf {
			continue
		}
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		alpha := (2.83 + 5.1/b) * spq
		if math.Log(v*alpha/(a/(us*us)+b)) <= binomialLogRatio(nf, p, k) {
			return int(k)
		}
	}
}

// binomialLogRatio returns ln f(k)/f(m) for the Binomial(n, p) pmf f and
// its mode m = ⌊(n+1)p⌋: with r = p/(1−p), that is ln m! + ln(n−m)! −
// ln k! − ln(n−k)! + (k−m)·ln r. Writing ln j! = (j+½)·ln(j+1) − (j+1) +
// ½·ln 2π + stirlingTail(j), the linear and constant terms cancel, and
// the eight remaining logs (ln r counted twice) combine into three.
//
//df:hotpath
func binomialLogRatio(n, p, k float64) float64 {
	m := math.Floor((n + 1) * p)
	r := p / (1 - p)
	return (m+0.5)*math.Log((m+1)/(r*(n-m+1))) +
		(n+1)*math.Log((n-m+1)/(n-k+1)) +
		(k+0.5)*math.Log(r*(n-k+1)/(k+1)) +
		stirlingTail(m) + stirlingTail(n-m) - stirlingTail(k) - stirlingTail(n-k)
}

// stirlingTail returns ln k! − ((k+½)·ln(k+1) − (k+1) + ½·ln 2π) for a
// whole number k ≥ 0: from a table for k ≤ 9, and above that from the
// series (1/12 − 1/(360(k+1)²) + 1/(1260(k+1)⁴))/(k+1), whose next
// term, −1/(1680(k+1)⁷), is below 4e-11 from k = 10 on.
//
//df:hotpath
func stirlingTail(k float64) float64 {
	if k <= 9 {
		return stirlingTails[int(k)]
	}
	k1 := k + 1
	k1sq := k1 * k1
	return (1.0/12 - (1.0/360-1.0/1260/k1sq)/k1sq) / k1
}

// stirlingTails are ln k! − ((k+½)·ln(k+1) − (k+1) + ½·ln 2π) for
// k = 0..9, from math.Lgamma; TestStirlingTail checks them.
var stirlingTails = [10]float64{
	0.08106146679532733, 0.04134069595540946, 0.02767792568499894,
	0.020790672103765395, 0.016644691189822147, 0.013876128823071987,
	0.011896709945892425, 0.010411265261971892, 0.009255462182711227,
	0.008330563433363025,
}

// Multinomial draws one Multinomial(n, weights) vector, writing the
// per-cell counts into dst as whole-number float64s. The weights need not
// be normalized; zero-weight cells always receive 0. The draw uses
// conditional-binomial splitting — cell i receives
// Binomial(remaining, wᵢ/Σ_{j≥i} wⱼ) — so one draw costs O(len(weights))
// binomial samples instead of the O(n) category draws of repeated alias
// sampling. It panics on mismatched lengths, n < 0, or weights that are
// negative, NaN, or sum to zero.
//
//df:hotpath
func (r *RNG) Multinomial(dst []float64, n int, weights []float64) {
	if len(dst) != len(weights) || len(weights) == 0 {
		panic("rng: Multinomial length mismatch")
	}
	if n < 0 {
		panic("rng: Multinomial with negative n")
	}
	var total float64
	last := -1 // last positive-weight cell, absorbs float round-off
	for i, w := range weights {
		if !(w >= 0) || math.IsInf(w, 0) {
			panic("rng: Multinomial with negative, NaN or infinite weight")
		}
		if w > 0 {
			last = i
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Multinomial with zero total weight")
	}
	remaining := n
	wrem := total
	for i, w := range weights {
		if w <= 0 || remaining == 0 {
			dst[i] = 0
			continue
		}
		if i == last || w >= wrem {
			// Final positive cell (or float drift made w the whole rest):
			// it takes everything left, keeping Σ dst = n exact.
			dst[i] = float64(remaining)
			remaining = 0
			continue
		}
		k := r.Binomial(remaining, w/wrem)
		dst[i] = float64(k)
		remaining -= k
		wrem -= w
	}
}
