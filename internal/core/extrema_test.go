package core_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
	"repro/internal/rng"
)

// extremaOf scans a CPT into rate extrema the way an ascending
// strict-replace scan does.
func extremaOf(c *core.CPT) *core.RateExtrema {
	x := core.NewRateExtrema(c.NumOutcomes())
	for g := 0; g < c.Space().Size(); g++ {
		if !c.Supported(g) {
			continue
		}
		x.Supported++
		for y := 0; y < c.NumOutcomes(); y++ {
			x.Observe(y, g, c.Prob(g, y))
		}
	}
	return &x
}

// randomCPT draws a CPT built from small integer counts, so rates tie,
// hit zero and leave groups unsupported often.
func randomCPT(r *rng.RNG, space *core.Space, outcomes []string, alpha float64) *core.CPT {
	c := core.MustCounts(space, outcomes)
	for g := 0; g < space.Size(); g++ {
		if r.Intn(4) == 0 {
			continue // unsupported
		}
		for y := range outcomes {
			c.MustAdd(g, y, float64(r.Intn(4)))
		}
	}
	if alpha > 0 {
		cpt, err := c.Smoothed(alpha, false)
		if err != nil {
			panic(err)
		}
		return cpt
	}
	return c.Empirical()
}

// TestEvalExtremaMatchesEval pins the ExtremaMetric contract: for every
// registry metric with an extrema form, EvalExtrema over a CPT's extrema
// returns Eval's value, witness and finiteness bit for bit, and fails
// with ErrDegenerateSupport exactly when Eval does.
func TestEvalExtremaMatchesEval(t *testing.T) {
	space := core.MustSpace(
		core.Attr{Name: "a", Values: []string{"0", "1", "2"}},
		core.Attr{Name: "b", Values: []string{"x", "y"}},
	)
	metrics := fusedMetrics()
	withForm := map[string]bool{}
	for _, m := range metrics {
		if _, ok := m.(core.ExtremaMetric); ok {
			withForm[m.Key()] = true
		}
	}
	for _, key := range []string{"epsilon", "worst_gap", "worst_ratio", "alpha_if", "demographic_parity"} {
		if !withForm[key] {
			t.Errorf("%s has no extrema form", key)
		}
	}
	if withForm["subgroup"] {
		t.Error("subgroup claims an extrema form; it weighs groups by their mass")
	}

	r := rng.New(2024)
	degenerate := 0
	for _, outcomes := range [][]string{{"no", "yes"}, {"lo", "mid", "hi"}} {
		for trial := 0; trial < 400; trial++ {
			alpha := 0.0
			if trial%2 == 1 {
				alpha = 0.5
			}
			c := randomCPT(r, space, outcomes, alpha)
			x := extremaOf(c)
			for _, m := range metrics {
				em, ok := m.(core.ExtremaMetric)
				if !ok || m.Applicable(space, outcomes) != nil {
					continue
				}
				want, werr := m.Eval(c)
				got, gerr := em.EvalExtrema(x)
				if (werr == nil) != (gerr == nil) ||
					(werr != nil && errors.Is(werr, core.ErrDegenerateSupport) != errors.Is(gerr, core.ErrDegenerateSupport)) {
					t.Fatalf("%s trial %d: Eval error %v, EvalExtrema error %v", m.Key(), trial, werr, gerr)
				}
				if werr != nil {
					degenerate++
					continue
				}
				if math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
					got.Witness != want.Witness || got.Finite != want.Finite {
					t.Fatalf("%s trial %d (k=%d, alpha=%v):\n  extrema %+v\n  eval    %+v",
						m.Key(), trial, len(outcomes), alpha, got, want)
				}
			}
			eps, err := core.Epsilon(c)
			xeps, xerr := x.Epsilon()
			if (err == nil) != (xerr == nil) || (err == nil && (math.Float64bits(eps.Epsilon) != math.Float64bits(xeps.Epsilon) || eps.Witness != xeps.Witness)) {
				t.Fatalf("trial %d: Epsilon %+v (%v), extrema %+v (%v)", trial, eps, err, xeps, xerr)
			}
		}
	}
	if degenerate == 0 {
		t.Error("no degenerate table drawn; the error parity went unchecked")
	}
}

// TestRateExtremaReset: fresh and reset extrema hold the no-support
// sentinels and fail every evaluation as degenerate.
func TestRateExtremaReset(t *testing.T) {
	x := core.NewRateExtrema(2)
	x.Supported = 3
	x.Observe(1, 4, 0.5)
	x.Reset()
	for y := 0; y < 2; y++ {
		if !math.IsInf(x.Hi[y], -1) || !math.IsInf(x.Lo[y], 1) || x.HiG[y] != -1 || x.LoG[y] != -1 {
			t.Fatalf("outcome %d after Reset: hi %v@%d lo %v@%d", y, x.Hi[y], x.HiG[y], x.Lo[y], x.LoG[y])
		}
	}
	if _, err := x.Epsilon(); !errors.Is(err, core.ErrDegenerateSupport) {
		t.Fatalf("Epsilon on empty extrema: %v, want ErrDegenerateSupport", err)
	}
	if _, err := (fairmetrics.WorstGap{}).EvalExtrema(&x); !errors.Is(err, core.ErrDegenerateSupport) {
		t.Fatalf("worst_gap on empty extrema: %v, want ErrDegenerateSupport", err)
	}
}
