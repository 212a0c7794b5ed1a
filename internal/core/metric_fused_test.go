package core_test

import (
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
)

// fusedMetrics is ε plus the five counts metrics of internal/fairmetrics.
func fusedMetrics() []core.Metric {
	return []core.Metric{
		core.DFEpsilon,
		fairmetrics.WorstGap{},
		fairmetrics.WorstRatio{},
		fairmetrics.AlphaIntersectional{Alpha: 0.5},
		fairmetrics.SubgroupParity{},
		fairmetrics.DemographicParity{},
	}
}

// sparseCounts is a three-attribute table with unobserved groups and
// zero cells, so unsmoothed subsets reach ε = +Inf.
func sparseCounts() *core.Counts {
	space := core.MustSpace(
		core.Attr{Name: "a", Values: []string{"0", "1"}},
		core.Attr{Name: "b", Values: []string{"0", "1", "2"}},
		core.Attr{Name: "c", Values: []string{"0", "1"}},
	)
	c := core.MustCounts(space, []string{"no", "yes"})
	cells := []float64{3, 1, 0, 2, 0, 0, 4, 0, 1, 1, 0, 0, 2, 5, 0, 1, 0, 0, 1, 0, 6, 2, 0, 3}
	for i, n := range cells {
		c.MustAdd(i/2, i%2, n)
	}
	return c
}

// TestMetricSubsetsCountsFusedMatchesSingle: one lattice walk over ε and
// every counts metric returns, for each metric, exactly the ladder a
// one-metric walk returns — values, witnesses and subset order — and
// EpsilonSubsetsCounts is the ε ladder of that walk.
func TestMetricSubsetsCountsFusedMatchesSingle(t *testing.T) {
	c := sparseCounts()
	ms := fusedMetrics()
	for _, alpha := range []float64{0, 1} {
		fused, err := core.MetricSubsetsCounts(ms, c, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if len(fused) != len(ms) {
			t.Fatalf("alpha=%v: got %d ladders for %d metrics", alpha, len(fused), len(ms))
		}
		for j, m := range ms {
			single, err := core.MetricSubsetsCounts([]core.Metric{m}, c, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if len(fused[j]) != len(single[0]) {
				t.Fatalf("alpha=%v %s: %d subsets fused vs %d single", alpha, m.Key(), len(fused[j]), len(single[0]))
			}
			for i, got := range fused[j] {
				want := single[0][i]
				if !slices.Equal(got.Attrs, want.Attrs) ||
					math.Float64bits(got.Result.Value) != math.Float64bits(want.Result.Value) ||
					got.Result.Witness != want.Result.Witness || got.Result.Finite != want.Result.Finite ||
					got.Space.Size() != want.Space.Size() {
					t.Fatalf("alpha=%v %s subset %d: fused %+v differs from single %+v", alpha, m.Key(), i, got, want)
				}
			}
		}
		eps, err := core.EpsilonSubsetsCounts(c, alpha)
		if err != nil {
			t.Fatal(err)
		}
		infinite := false
		for i, s := range eps {
			f := fused[0][i]
			if !slices.Equal(s.Attrs, f.Attrs) || math.Float64bits(s.Result.Epsilon) != math.Float64bits(f.Result.Value) ||
				s.Result.Witness != f.Result.Witness || s.Result.Finite != f.Result.Finite {
				t.Fatalf("alpha=%v: EpsilonSubsetsCounts row %d %+v differs from the fused ε ladder %+v", alpha, i, s, f)
			}
			infinite = infinite || !s.Result.Finite
		}
		if alpha == 0 && !infinite {
			t.Fatal("sparse table produced no infinite subset ε")
		}
	}
	if got, err := core.MetricSubsetsCounts(nil, c, 0); got != nil || err != nil {
		t.Fatalf("no metrics: got %v, %v; want nil, nil", got, err)
	}
}

var errBroken = errors.New("broken metric")

// brokenMetric is ε that fails with a non-degenerate error on every Eval
// after its first ok calls.
type brokenMetric struct {
	core.Metric
	ok    int64
	calls *atomic.Int64
}

func (m brokenMetric) Key() string { return "broken" }

func (m brokenMetric) Eval(c *core.CPT) (core.MetricResult, error) {
	if m.calls.Add(1) > m.ok {
		return core.MetricResult{}, errBroken
	}
	return m.Metric.Eval(c)
}

// TestMetricSubsetsCountsFailsOnAnyMetricError: an Eval error from any
// one metric of a fused walk fails the walk.
func TestMetricSubsetsCountsFailsOnAnyMetricError(t *testing.T) {
	c := sparseCounts()
	for pos := 0; pos <= len(fusedMetrics()); pos++ {
		ms := fusedMetrics()
		broken := brokenMetric{Metric: core.DFEpsilon, ok: 1, calls: new(atomic.Int64)}
		ms = append(ms[:pos], append([]core.Metric{broken}, ms[pos:]...)...)
		if _, err := core.MetricSubsetsCounts(ms, c, 1); !errors.Is(err, errBroken) {
			t.Fatalf("broken metric at position %d: err = %v, want errBroken", pos, err)
		}
	}
}
