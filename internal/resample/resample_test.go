package resample

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
	"repro/internal/rng"
)

func makeCounts(t *testing.T, cells ...float64) *core.Counts {
	t.Helper()
	n := len(cells) / 2
	vals := make([]string, n)
	for i := range vals {
		vals[i] = string(rune('a' + i))
	}
	space := core.MustSpace(core.Attr{Name: "g", Values: vals})
	c := core.MustCounts(space, []string{"no", "yes"})
	for g := 0; g < n; g++ {
		c.MustAdd(g, 0, cells[2*g])
		c.MustAdd(g, 1, cells[2*g+1])
	}
	return c
}

func TestBootstrapCoversPoint(t *testing.T) {
	c := makeCounts(t, 400, 600, 700, 300)
	iv, err := EpsilonBootstrap(context.Background(), c, 0, 400, 0.95, rng.New(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(iv.Lo <= iv.Point && iv.Point <= iv.Hi) {
		t.Fatalf("point %v outside interval [%v, %v]", iv.Point, iv.Lo, iv.Hi)
	}
	want := core.MustEpsilon(c.Empirical()).Epsilon
	if math.Abs(iv.Point-want) > 1e-12 {
		t.Fatalf("point %v, want %v", iv.Point, want)
	}
	if iv.InfiniteShare != 0 {
		t.Fatalf("infinite replicates on a dense table: %v", iv.InfiniteShare)
	}
	if len(iv.Replicates) != 400 {
		t.Fatalf("replicates %d", len(iv.Replicates))
	}
}

func TestBootstrapWidthShrinksWithData(t *testing.T) {
	small := makeCounts(t, 40, 60, 70, 30)
	big := makeCounts(t, 4000, 6000, 7000, 3000)
	ivSmall, err := EpsilonBootstrap(context.Background(), small, 0, 300, 0.9, rng.New(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	ivBig, err := EpsilonBootstrap(context.Background(), big, 0, 300, 0.9, rng.New(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ivBig.Hi-ivBig.Lo >= ivSmall.Hi-ivSmall.Lo {
		t.Fatalf("interval did not shrink: big %v vs small %v",
			ivBig.Hi-ivBig.Lo, ivSmall.Hi-ivSmall.Lo)
	}
}

// TestBootstrapSparsityDiagnostic: with a near-empty outcome cell, some
// unsmoothed replicates go infinite; smoothing removes that entirely.
func TestBootstrapSparsityDiagnostic(t *testing.T) {
	c := makeCounts(t, 99, 1, 50, 50) // group a has a single "yes"
	raw, err := EpsilonBootstrap(context.Background(), c, 0, 300, 0.9, rng.New(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw.InfiniteShare == 0 {
		t.Fatal("expected some infinite replicates on the sparse table")
	}
	smoothed, err := EpsilonBootstrap(context.Background(), c, 1, 300, 0.9, rng.New(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if smoothed.InfiniteShare != 0 {
		t.Fatalf("smoothed replicates still infinite: %v", smoothed.InfiniteShare)
	}
	if math.IsInf(smoothed.Hi, 1) {
		t.Fatal("smoothed upper bound infinite")
	}
}

func TestBootstrapDeterministicUnderSeed(t *testing.T) {
	c := makeCounts(t, 400, 600, 700, 300)
	a, err := EpsilonBootstrap(context.Background(), c, 1, 100, 0.9, rng.New(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EpsilonBootstrap(context.Background(), c, 1, 100, 0.9, rng.New(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lo != b.Lo || a.Hi != b.Hi {
		t.Fatal("bootstrap not deterministic under fixed seed")
	}
}

func TestBootstrapValidation(t *testing.T) {
	c := makeCounts(t, 10, 10, 10, 10)
	if _, err := EpsilonBootstrap(context.Background(), c, 0, 0, 0.9, rng.New(1), 0); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := EpsilonBootstrap(context.Background(), c, 0, 10, 1.5, rng.New(1), 0); err == nil {
		t.Error("bad level accepted")
	}
	space := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	zero := core.MustCounts(space, []string{"no", "yes"})
	if _, err := EpsilonBootstrap(context.Background(), zero, 0, 10, 0.9, rng.New(1), 0); err == nil {
		t.Error("empty counts accepted")
	}
	frac := core.MustCounts(space, []string{"no", "yes"})
	frac.MustAdd(0, 0, 1.5)
	frac.MustAdd(1, 1, 1)
	if _, err := EpsilonBootstrap(context.Background(), frac, 0, 10, 0.9, rng.New(1), 0); err == nil {
		t.Error("fractional counts accepted")
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty percentile not NaN")
	}
	vals := []float64{1, 2, math.Inf(1)}
	if got := percentile(vals, 1); !math.IsInf(got, 1) {
		t.Errorf("top percentile = %v", got)
	}
	if got := percentile(vals, 0); got != 1 {
		t.Errorf("bottom percentile = %v", got)
	}
	// Interpolation adjacent to +Inf yields +Inf rather than NaN.
	if got := percentile(vals, 0.75); !math.IsInf(got, 1) {
		t.Errorf("interpolated-near-inf percentile = %v", got)
	}
}

// TestBootstrapDeterministicAcrossWorkerCounts: the engine's contract is
// that the interval is bit-identical no matter how many workers run the
// replicates.
func TestBootstrapDeterministicAcrossWorkerCounts(t *testing.T) {
	c := makeCounts(t, 400, 600, 700, 300)
	for _, alpha := range []float64{0, 1} {
		var intervals []Interval
		for _, workers := range []int{1, 2, 8} {
			iv, err := EpsilonBootstrap(context.Background(), c, alpha, 200, 0.95, rng.New(17), workers)
			if err != nil {
				t.Fatal(err)
			}
			intervals = append(intervals, iv)
		}
		for i := 1; i < len(intervals); i++ {
			a, b := intervals[0], intervals[i]
			if a.Lo != b.Lo || a.Hi != b.Hi || a.Point != b.Point || a.InfiniteShare != b.InfiniteShare {
				t.Fatalf("alpha=%v: interval differs across worker counts: %+v vs %+v", alpha, a, b)
			}
			for k := range a.Replicates {
				if a.Replicates[k] != b.Replicates[k] {
					t.Fatalf("alpha=%v: replicate %d differs across worker counts", alpha, k)
				}
			}
		}
	}
}

// TestBootstrapDegenerateReplicatesAreInfNotError: with a 2-observation
// table many multinomial resamples concentrate all mass in one group.
// Those replicates are legitimately +Inf; the call must succeed and
// report them via InfiniteShare.
func TestBootstrapDegenerateReplicatesAreInfNotError(t *testing.T) {
	c := makeCounts(t, 1, 1, 1, 1) // four observations over four cells
	iv, err := EpsilonBootstrap(context.Background(), c, 0, 400, 0.9, rng.New(5), 0)
	if err != nil {
		t.Fatalf("degenerate replicates failed the call: %v", err)
	}
	if iv.InfiniteShare == 0 {
		t.Fatal("expected a positive share of degenerate (+Inf) replicates")
	}
	// A replicate is finite only when every cell gets exactly one
	// observation (probability 4!/4^4 ≈ 9.4%), so at B=400 finite
	// replicates exist with overwhelming probability.
	if iv.InfiniteShare == 1 {
		t.Fatal("every replicate infinite; resampling looks broken")
	}
}

// epsilonBootstrapSerialAlias is the pre-engine reference bootstrap:
// every replicate redraws all n observations one at a time from an alias
// table, serially, allocating fresh tables per replicate. It is the
// distributional oracle for the multinomial engine.
func epsilonBootstrapSerialAlias(c *core.Counts, alpha float64, b int, level float64, r *rng.RNG) (Interval, error) {
	n, points, err := validateBootstrap([]core.Metric{core.DFEpsilon}, c, alpha, b, level)
	if err != nil {
		return Interval{}, err
	}

	space := c.Space()
	outcomes := c.Outcomes()
	nOut := len(outcomes)
	alias := rng.NewAlias(c.Cells())

	reps := make([]float64, 0, b)
	infinite := 0
	for rep := 0; rep < b; rep++ {
		boot, err := core.NewCounts(space, outcomes)
		if err != nil {
			return Interval{}, err
		}
		for i := 0; i < n; i++ {
			cell := alias.Sample(r)
			if err := boot.Observe(cell/nOut, cell%nOut); err != nil {
				return Interval{}, err
			}
		}
		var cpt *core.CPT
		if alpha > 0 {
			cpt, err = boot.Smoothed(alpha, false)
			if err != nil {
				return Interval{}, err
			}
		} else {
			cpt = boot.Empirical()
		}
		res, err := core.Epsilon(cpt)
		if err != nil {
			if !errors.Is(err, core.ErrDegenerateSupport) {
				return Interval{}, fmt.Errorf("resample: replicate failed: %w", err)
			}
			reps = append(reps, math.Inf(1))
			infinite++
			continue
		}
		reps = append(reps, res.Epsilon)
		if !res.Finite {
			infinite++
		}
	}
	sort.Float64s(reps)
	return Interval{
		Point:         points[0],
		Lo:            percentile(reps, (1-level)/2),
		Hi:            percentile(reps, 1-(1-level)/2),
		Level:         level,
		Replicates:    reps,
		InfiniteShare: float64(infinite) / float64(b),
	}, nil
}

// TestBootstrapMatchesSerialAliasDistribution: the multinomial engine and
// the serial alias reference draw from the same resampling distribution —
// their interval endpoints must agree closely at high B.
func TestBootstrapMatchesSerialAliasDistribution(t *testing.T) {
	c := makeCounts(t, 400, 600, 700, 300)
	fast, err := EpsilonBootstrap(context.Background(), c, 1, 3000, 0.9, rng.New(21), 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := epsilonBootstrapSerialAlias(c, 1, 3000, 0.9, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.Lo-slow.Lo) > 0.02 || math.Abs(fast.Hi-slow.Hi) > 0.02 {
		t.Fatalf("engines disagree: multinomial [%v, %v] vs alias [%v, %v]",
			fast.Lo, fast.Hi, slow.Lo, slow.Hi)
	}
	if fast.Point != slow.Point {
		t.Fatalf("point estimates differ: %v vs %v", fast.Point, slow.Point)
	}
}

func TestSerialAliasValidation(t *testing.T) {
	c := makeCounts(t, 10, 10, 10, 10)
	if _, err := epsilonBootstrapSerialAlias(c, 0, 0, 0.9, rng.New(1)); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := epsilonBootstrapSerialAlias(c, 0, 10, 2, rng.New(1)); err == nil {
		t.Error("bad level accepted")
	}
}

func TestEpsilonBootstrapCtxCanceled(t *testing.T) {
	c := makeCounts(t, 400, 600, 700, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EpsilonBootstrap(ctx, c, 0, 1000, 0.95, rng.New(1), 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A background context and a canceled one must differ only in outcome.
	a, err := EpsilonBootstrap(context.Background(), c, 0, 50, 0.95, rng.New(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EpsilonBootstrap(context.Background(), c, 0, 50, 0.95, rng.New(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lo != b.Lo || a.Hi != b.Hi {
		t.Errorf("ctx variant diverged: [%v,%v] vs [%v,%v]", a.Lo, a.Hi, b.Lo, b.Hi)
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

func sameInterval(a, b Interval) bool {
	if !sameBits(a.Point, b.Point) || !sameBits(a.Lo, b.Lo) || !sameBits(a.Hi, b.Hi) ||
		!sameBits(a.InfiniteShare, b.InfiniteShare) || len(a.Replicates) != len(b.Replicates) {
		return false
	}
	for i := range a.Replicates {
		if !sameBits(a.Replicates[i], b.Replicates[i]) {
			return false
		}
	}
	return true
}

// TestMetricBootstrapFusedMatchesSingle: one fused call over ε and every
// counts metric returns, for each metric, exactly the interval a
// one-metric call returns, at every worker count. The table is sparse and
// unsmoothed, so some replicates put all mass in one group: there ε
// scores +Inf and every other metric its own WorstValue, pinned against a
// serial replay of the engine's substream draws.
func TestMetricBootstrapFusedMatchesSingle(t *testing.T) {
	c := makeCounts(t, 1, 1, 0, 1, 1, 0) // three groups, four observations
	const (
		seed = 13
		b    = 200
	)
	ms := fusedMetrics()
	want := replayBootstrap(t, ms, c, seed, b)
	for _, workers := range []int{1, 2, 7} {
		fused, err := MetricBootstrap(context.Background(), ms, c, 0, b, 0.9, rng.New(seed), workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(fused) != len(ms) {
			t.Fatalf("workers=%d: got %d intervals for %d metrics", workers, len(fused), len(ms))
		}
		for j, m := range ms {
			single, err := MetricBootstrap(context.Background(), []core.Metric{m}, c, 0, b, 0.9, rng.New(seed), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !sameInterval(fused[j], single[0]) {
				t.Fatalf("workers=%d %s: fused interval %+v differs from single-metric %+v", workers, m.Key(), fused[j], single[0])
			}
			for i, v := range fused[j].Replicates {
				if !sameBits(v, want[j][i]) {
					t.Fatalf("workers=%d %s: sorted replicate %d = %v, replay says %v", workers, m.Key(), i, v, want[j][i])
				}
			}
			if m != core.DFEpsilon && fused[j].InfiniteShare != 0 {
				t.Fatalf("%s: bounded metric reports InfiniteShare %v", m.Key(), fused[j].InfiniteShare)
			}
		}
	}
}

// replayBootstrap redraws the engine's replicate tables serially (replicate
// i from substream (base, i)) and scores them directly: a table with
// fewer than two supported groups scores each metric's WorstValue. It
// returns each metric's sorted replicates and fails the test unless some
// replicates degenerate.
func replayBootstrap(t *testing.T, ms []core.Metric, c *core.Counts, seed uint64, b int) [][]float64 {
	t.Helper()
	space, outcomes := c.Space(), c.Outcomes()
	base := rng.New(seed).Uint64()
	r := rng.New(0)
	boot := core.MustCounts(space, outcomes)
	out := make([][]float64, len(ms))
	degenerate := 0
	for i := 0; i < b; i++ {
		r.SeedStream(base, uint64(i))
		r.Multinomial(boot.Cells(), int(c.Total()), c.Cells())
		supported := 0
		for g := 0; g < space.Size(); g++ {
			if boot.GroupTotal(g) > 0 {
				supported++
			}
		}
		cpt := boot.Empirical()
		for j, m := range ms {
			v := m.WorstValue()
			if supported >= 2 {
				res, err := m.Eval(cpt)
				if err != nil {
					t.Fatal(err)
				}
				v = res.Value
			}
			out[j] = append(out[j], v)
		}
		if supported < 2 {
			degenerate++
		}
	}
	if degenerate == 0 {
		t.Fatal("no degenerate replicates; the table does not exercise WorstValue")
	}
	for _, vals := range out {
		sort.Float64s(vals)
	}
	return out
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

// TestMetricBootstrapFailsOnAnyMetricError: a non-degenerate Eval error
// on a replicate, from any one metric of a fused call, fails the call.
func TestMetricBootstrapFailsOnAnyMetricError(t *testing.T) {
	c := makeCounts(t, 400, 600, 700, 300)
	for pos := 0; pos <= len(fusedMetrics()); pos++ {
		ms := fusedMetrics()
		// The point value on the original table is the broken metric's
		// first Eval; every replicate after it fails.
		broken := brokenMetric{Metric: core.DFEpsilon, ok: 1, calls: new(atomic.Int64)}
		ms = append(ms[:pos], append([]core.Metric{broken}, ms[pos:]...)...)
		_, err := MetricBootstrap(context.Background(), ms, c, 0, 50, 0.9, rng.New(3), 2)
		if !errors.Is(err, errBroken) {
			t.Fatalf("broken metric at position %d: err = %v, want errBroken", pos, err)
		}
	}
	if _, err := MetricBootstrap(context.Background(), nil, c, 0, 50, 0.9, rng.New(3), 0); err == nil {
		t.Error("empty metric list accepted")
	}
}
