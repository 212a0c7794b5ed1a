package core_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
	"repro/internal/rng"
)

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
			x := core.NewRateExtrema(len(outcomes))
			x.Scan(c)
			for _, m := range metrics {
				em, ok := m.(core.ExtremaMetric)
				if !ok || m.Applicable(space, outcomes) != nil {
					continue
				}
				want, werr := m.Eval(c)
				got, gerr := em.EvalExtrema(&x)
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

// customMetric hides a metric's extrema form (only core.Metric's
// methods are promoted from the embedded interface), so EvalMetrics must
// score it by Eval.
type customMetric struct{ core.Metric }

func (customMetric) Key() string { return "custom_gap" }

// TestEvalMetricsMatchesEval pins the scorer against one Eval per
// metric: every registry metric and a custom metric without the extrema
// form get Eval's value bits, witness and finiteness, on random tables
// with ties, zero rates and unsupported groups and on hand-built ones
// with an outcome no group reaches and a single supported group.
// Degenerate tables fail with ErrDegenerateSupport, and a table with an
// invalid row still fails, as every Eval does.
func TestEvalMetricsMatchesEval(t *testing.T) {
	space := core.MustSpace(
		core.Attr{Name: "a", Values: []string{"0", "1", "2"}},
		core.Attr{Name: "b", Values: []string{"x", "y"}},
	)
	if _, ok := core.Metric(customMetric{fairmetrics.WorstGap{}}).(core.ExtremaMetric); ok {
		t.Fatal("customMetric kept the extrema form")
	}
	r := rng.New(7)
	checked := map[string]int{}
	for _, outcomes := range [][]string{{"no", "yes"}, {"lo", "mid", "hi"}} {
		var ms []core.Metric
		for _, m := range append(fusedMetrics(), customMetric{fairmetrics.WorstGap{}}) {
			if m.Applicable(space, outcomes) == nil {
				ms = append(ms, m)
			}
		}
		k := len(outcomes)
		// Outcome 1 reached by no group, and a single supported group.
		unreached := core.MustCPT(space, outcomes)
		single := core.MustCPT(space, outcomes)
		for g := 0; g < space.Size(); g++ {
			row := make([]float64, k)
			row[0] = float64(g+1) / 8
			row[k-1] = 1 - row[0]
			unreached.MustSetRow(g, float64(g%3), row...)
			if g == 4 {
				single.MustSetRow(g, 2, row...)
			}
		}
		invalid := unreached.Clone()
		invalid.CorruptProb(2, 0, 0.9)
		tables := []*core.CPT{unreached, single, invalid, core.MustCPT(space, outcomes)}
		for trial := 0; trial < 400; trial++ {
			tables = append(tables, randomCPT(r, space, outcomes, float64(trial%3)/2))
		}
		x := core.NewRateExtrema(k)
		out := make([]core.MetricResult, len(ms))
		for i, c := range tables {
			err := core.EvalMetrics(ms, c, &x, out)
			if verr := c.Validate(); verr != nil {
				if err == nil || errors.Is(err, core.ErrDegenerateSupport) != errors.Is(verr, core.ErrDegenerateSupport) {
					t.Fatalf("k=%d table %d: Validate fails with %v, EvalMetrics with %v", k, i, verr, err)
				}
				for _, m := range ms {
					if _, eerr := m.Eval(c); eerr == nil {
						t.Fatalf("k=%d table %d: %s accepts a table EvalMetrics rejects", k, i, m.Key())
					}
				}
				if errors.Is(verr, core.ErrDegenerateSupport) {
					checked["degenerate"]++
				} else {
					checked["invalid"]++
				}
				continue
			}
			if err != nil {
				t.Fatalf("k=%d table %d: %v", k, i, err)
			}
			for j, m := range ms {
				want, werr := m.Eval(c)
				if werr != nil {
					t.Fatalf("k=%d table %d: %s: %v", k, i, m.Key(), werr)
				}
				got := out[j]
				if math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
					got.Witness != want.Witness || got.Finite != want.Finite {
					t.Fatalf("k=%d table %d %s:\n  EvalMetrics %+v\n  Eval        %+v", k, i, m.Key(), got, want)
				}
				checked[m.Key()]++
				if !want.Finite {
					checked["infinite"]++
				}
			}
		}
	}
	for _, key := range []string{"degenerate", "invalid", "infinite", "custom_gap", "epsilon", "worst_gap",
		"worst_ratio", "alpha_if", "subgroup", "demographic_parity"} {
		if checked[key] == 0 {
			t.Errorf("no table exercised %s", key)
		}
	}
}

// BenchmarkHotPathEvalMetrics asserts the //df:hotpath contract on
// EvalMetrics and RateExtrema.Scan: ε plus the four extension metrics on
// a 160-group smoothed CPT (the 2×5×4×2×2 audit space), as one
// bootstrap replicate or posterior draw scores them. scripts/alloc_gate.sh
// fails unless it reports 0 allocs/op.
func BenchmarkHotPathEvalMetrics(b *testing.B) {
	space := core.MustSpace(
		core.Attr{Name: "gender", Values: []string{"0", "1"}},
		core.Attr{Name: "race", Values: []string{"0", "1", "2", "3", "4"}},
		core.Attr{Name: "age", Values: []string{"0", "1", "2", "3"}},
		core.Attr{Name: "nationality", Values: []string{"0", "1"}},
		core.Attr{Name: "disability", Values: []string{"0", "1"}},
	)
	cpt := randomCPT(rng.New(160), space, []string{"no", "yes"}, 1)
	ms := []core.Metric{
		core.DFEpsilon,
		fairmetrics.WorstGap{},
		fairmetrics.WorstRatio{},
		fairmetrics.AlphaIntersectional{Alpha: 0.5},
		fairmetrics.DemographicParity{},
	}
	x := core.NewRateExtrema(2)
	out := make([]core.MetricResult, len(ms))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.EvalMetrics(ms, cpt, &x, out); err != nil {
			b.Fatal(err)
		}
	}
}
