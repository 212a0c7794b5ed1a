package bayes

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
	"repro/internal/rng"
)

func demoCounts(t *testing.T) *core.Counts {
	t.Helper()
	s := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	c := core.MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 0, 30)
	c.MustAdd(0, 1, 70)
	c.MustAdd(1, 0, 60)
	c.MustAdd(1, 1, 40)
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := NewDirichletMultinomial(nil, 1); err == nil {
		t.Error("nil counts accepted")
	}
	c := demoCounts(t)
	for _, alpha := range []float64{0, -1, math.Inf(1)} {
		if _, err := NewDirichletMultinomial(c, alpha); err == nil {
			t.Errorf("alpha=%v accepted", alpha)
		}
	}
}

// TestPosteriorPredictiveIsEq7: the posterior predictive of the conjugate
// model equals the paper's smoothed estimator.
func TestPosteriorPredictiveIsEq7(t *testing.T) {
	c := demoCounts(t)
	m, err := NewDirichletMultinomial(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := m.PosteriorPredictive(false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Smoothed(1, false)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		for y := 0; y < 2; y++ {
			if math.Abs(pp.Prob(g, y)-want.Prob(g, y)) > 1e-15 {
				t.Fatalf("posterior predictive != Eq.7 at (%d,%d)", g, y)
			}
		}
	}
}

func TestSamplePosteriorShapeAndDeterminism(t *testing.T) {
	c := demoCounts(t)
	m, _ := NewDirichletMultinomial(c, 1)
	s1, err := m.SamplePosterior(context.Background(), 5, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.SamplePosterior(context.Background(), 5, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 5 {
		t.Fatalf("got %d samples", len(s1))
	}
	for i := range s1 {
		for g := 0; g < 2; g++ {
			for y := 0; y < 2; y++ {
				if s1[i].Prob(g, y) != s2[i].Prob(g, y) {
					t.Fatal("posterior sampling not deterministic under fixed seed")
				}
			}
		}
	}
	if _, err := m.SamplePosterior(context.Background(), 0, rng.New(1)); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestSamplePosteriorRowsAreDistributions(t *testing.T) {
	c := demoCounts(t)
	m, _ := NewDirichletMultinomial(c, 0.5)
	samples, err := m.SamplePosterior(context.Background(), 50, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid sampled CPT: %v", err)
		}
	}
}

// TestPosteriorConcentratesWithData: with 100x the data at the same
// rates, the posterior spread of ε shrinks and the interval tightens
// around the empirical value.
func TestPosteriorConcentratesWithData(t *testing.T) {
	s := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	build := func(scale float64) *core.Counts {
		c := core.MustCounts(s, []string{"no", "yes"})
		c.MustAdd(0, 0, 30*scale)
		c.MustAdd(0, 1, 70*scale)
		c.MustAdd(1, 0, 60*scale)
		c.MustAdd(1, 1, 40*scale)
		return c
	}
	small, _ := NewDirichletMultinomial(build(1), 1)
	big, _ := NewDirichletMultinomial(build(100), 1)
	ps, err := small.EpsilonCredible(context.Background(), 400, 0.9, rng.New(11), 0)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := big.EpsilonCredible(context.Background(), 400, 0.9, rng.New(11), 0)
	if err != nil {
		t.Fatal(err)
	}
	if widthS, widthB := ps.Hi-ps.Lo, pb.Hi-pb.Lo; widthB >= widthS {
		t.Fatalf("credible interval did not shrink with data: %v vs %v", widthB, widthS)
	}
	// The large-data posterior should centre near the empirical epsilon.
	emp := core.MustEpsilon(build(100).Empirical()).Epsilon
	if math.Abs(pb.Median-emp) > 0.05 {
		t.Fatalf("posterior median %v far from empirical %v", pb.Median, emp)
	}
}

func TestEpsilonCredibleInvariants(t *testing.T) {
	c := demoCounts(t)
	m, _ := NewDirichletMultinomial(c, 1)
	p, err := m.EpsilonCredible(context.Background(), 300, 0.95, rng.New(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(p.Lo <= p.Median && p.Median <= p.Hi) {
		t.Fatalf("quantiles out of order: %v %v %v", p.Lo, p.Median, p.Hi)
	}
	if p.Sup < p.Hi {
		t.Fatalf("sup %v below upper quantile %v", p.Sup, p.Hi)
	}
	if len(p.Samples) != 300 {
		t.Fatalf("kept %d samples", len(p.Samples))
	}
	for i := 1; i < len(p.Samples); i++ {
		if p.Samples[i] < p.Samples[i-1] {
			t.Fatal("samples not sorted")
		}
	}
	if _, err := m.EpsilonCredible(context.Background(), 10, 1.5, rng.New(1), 0); err == nil {
		t.Error("bad level accepted")
	}
}

func TestQuantileSorted(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if got := quantileSorted(vals, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := quantileSorted(vals, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := quantileSorted(vals, 0.5); got != 3 {
		t.Errorf("q0.5 = %v", got)
	}
	if got := quantileSorted(vals, 0.25); got != 2 {
		t.Errorf("q0.25 = %v", got)
	}
	if got := quantileSorted([]float64{7}, 0.9); got != 7 {
		t.Errorf("singleton = %v", got)
	}
	if got := quantileSorted(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty = %v", got)
	}
}

// TestPosteriorDeterministicAcrossWorkerCounts: the parallel engine must
// produce bit-identical posterior summaries no matter the pool size.
func TestPosteriorDeterministicAcrossWorkerCounts(t *testing.T) {
	c := demoCounts(t)
	m, _ := NewDirichletMultinomial(c, 1)
	var results []EpsilonPosterior
	for _, workers := range []int{1, 2, 8} {
		p, err := m.EpsilonCredible(context.Background(), 200, 0.9, rng.New(31), workers)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, p)
	}
	for i := 1; i < len(results); i++ {
		a, b := results[0], results[i]
		if a.Mean != b.Mean || a.Median != b.Median || a.Lo != b.Lo || a.Hi != b.Hi || a.Sup != b.Sup {
			t.Fatalf("posterior summary differs across worker counts: %+v vs %+v", a, b)
		}
		for k := range a.Samples {
			if a.Samples[k] != b.Samples[k] {
				t.Fatalf("sample %d differs across worker counts", k)
			}
		}
	}
	// SamplePosterior shares the substream layout, so the materialized
	// CPTs must also be worker-count independent.
	s1, err := m.samplePosterior(context.Background(), 20, rng.New(33), 1)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := m.samplePosterior(context.Background(), 20, rng.New(33), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		for g := 0; g < 2; g++ {
			for y := 0; y < 2; y++ {
				if s1[i].Prob(g, y) != s8[i].Prob(g, y) {
					t.Fatalf("sample %d CPT differs across worker counts", i)
				}
			}
		}
	}
}

// TestEpsilonCredibleMatchesSamplePosterior: EpsilonCredible's pooled-
// buffer path must evaluate exactly the θ set SamplePosterior returns for
// the same seed.
func TestEpsilonCredibleMatchesSamplePosterior(t *testing.T) {
	c := demoCounts(t)
	m, _ := NewDirichletMultinomial(c, 1)
	const n = 100
	thetas, err := m.SamplePosterior(context.Background(), n, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 0, n)
	for _, theta := range thetas {
		res, err := core.Epsilon(theta)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Epsilon)
	}
	sort.Float64s(want)
	p, err := m.EpsilonCredible(context.Background(), n, 0.9, rng.New(55), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != p.Samples[i] {
			t.Fatalf("sample %d: credible path %v, materialized path %v", i, p.Samples[i], want[i])
		}
	}
}

func TestEpsilonCredibleCtxCanceled(t *testing.T) {
	m, err := NewDirichletMultinomial(demoCounts(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.EpsilonCredible(ctx, 1000, 0.95, rng.New(1), 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	a, err := m.EpsilonCredible(context.Background(), 50, 0.9, rng.New(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.EpsilonCredible(context.Background(), 50, 0.9, rng.New(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lo != b.Lo || a.Hi != b.Hi || a.Mean != b.Mean {
		t.Errorf("ctx variant diverged")
	}
}

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

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePosterior(a, b EpsilonPosterior) bool {
	if !sameBits(a.Mean, b.Mean) || !sameBits(a.Median, b.Median) || !sameBits(a.Sup, b.Sup) ||
		!sameBits(a.Lo, b.Lo) || !sameBits(a.Hi, b.Hi) || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if !sameBits(a.Samples[i], b.Samples[i]) {
			return false
		}
	}
	return true
}

// TestMetricCredibleFusedMatchesSingle: one fused call over ε and every
// counts metric returns, for each metric, exactly the posterior summary a
// one-metric call returns, at every worker count — on a sparse table
// with an unobserved group and single-observation cells.
func TestMetricCredibleFusedMatchesSingle(t *testing.T) {
	s := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b", "c", "d"}})
	c := core.MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 1, 1)
	c.MustAdd(1, 0, 1)
	c.MustAdd(1, 1, 1)
	c.MustAdd(2, 0, 2)
	m, err := NewDirichletMultinomial(c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ms := fusedMetrics()
	for _, workers := range []int{1, 2, 7} {
		fused, err := m.MetricCredible(context.Background(), ms, 120, 0.9, rng.New(23), workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(fused) != len(ms) {
			t.Fatalf("workers=%d: got %d summaries for %d metrics", workers, len(fused), len(ms))
		}
		for j, metric := range ms {
			single, err := m.MetricCredible(context.Background(), []core.Metric{metric}, 120, 0.9, rng.New(23), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !samePosterior(fused[j], single[0]) {
				t.Fatalf("workers=%d %s: fused summary %+v differs from single-metric %+v", workers, metric.Key(), fused[j], single[0])
			}
		}
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

// TestMetricCredibleFailsOnAnyMetricError: an Eval error from any one
// metric of a fused call fails the call.
func TestMetricCredibleFailsOnAnyMetricError(t *testing.T) {
	m, _ := NewDirichletMultinomial(demoCounts(t), 1)
	for pos := 0; pos <= len(fusedMetrics()); pos++ {
		ms := fusedMetrics()
		broken := brokenMetric{Metric: core.DFEpsilon, ok: 1, calls: new(atomic.Int64)}
		ms = append(ms[:pos], append([]core.Metric{broken}, ms[pos:]...)...)
		_, err := m.MetricCredible(context.Background(), ms, 50, 0.9, rng.New(3), 2)
		if !errors.Is(err, errBroken) {
			t.Fatalf("broken metric at position %d: err = %v, want errBroken", pos, err)
		}
	}
	if _, err := m.MetricCredible(context.Background(), nil, 50, 0.9, rng.New(3), 0); err == nil {
		t.Error("empty metric list accepted")
	}
}
