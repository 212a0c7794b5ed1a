package fairness_test

// Benchmark harness: one benchmark per paper table/figure (regenerating
// the analysis), plus component-level and ablation benchmarks for the
// repository's design choices. Run with:
//
//	go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	fairness "repro"

	"repro/internal/bayes"
	"repro/internal/census"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/fairmetrics"
	"repro/internal/loadgen"
	"repro/internal/mechanism"
	"repro/internal/repair"
	"repro/internal/resample"
	"repro/internal/rng"
	"repro/internal/stream"
)

// BenchmarkFigure2 regenerates the Figure 2 worked example: Gaussian
// threshold mechanism, probability tables and ε.
func BenchmarkFigure2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the Simpson's-paradox analysis of Table 1.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the full-scale Table 2 subset ladder,
// including synthesizing the 32,561-row census train split.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(census.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Analysis isolates the ε computation of Table 2 from
// data synthesis: subset marginalization + Eq. 6 over fixed counts.
func BenchmarkTable2Analysis(b *testing.B) {
	train, _, err := census.Generate(census.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	counts, err := census.IncomeCounts(census.Space(), train)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EpsilonSubsetsCounts(counts, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates a reduced Table 3: the full 8-configuration
// logistic-regression sweep on a smaller census (the full-scale sweep is
// run by cmd/dfexperiments; at bench scale the shape is identical).
func BenchmarkTable3(b *testing.B) {
	cfg := experiments.Table3Config{
		Census:   census.Config{TrainN: 4000, TestN: 2000, Seed: 58},
		Logistic: classify.LogisticConfig{Epochs: 40, LearningRate: 0.8, L2: 1e-4, Momentum: 0.9},
		Alpha:    1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainLogistic isolates Table 3's training cost on the
// realistic census feature matrix.
func BenchmarkTrainLogistic(b *testing.B) {
	train, _, err := census.Generate(census.Config{TrainN: 8000, TestN: 1, Seed: 58})
	if err != nil {
		b.Fatal(err)
	}
	ds, _, err := census.Dataset(train, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := classify.LogisticConfig{Epochs: 50, LearningRate: 0.8, L2: 1e-4, Momentum: 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.TrainLogistic(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainFairLogistic measures the overhead of the DF
// regularizer relative to BenchmarkTrainLogistic.
func BenchmarkTrainFairLogistic(b *testing.B) {
	train, _, err := census.Generate(census.Config{TrainN: 8000, TestN: 1, Seed: 58})
	if err != nil {
		b.Fatal(err)
	}
	ds, _, err := census.Dataset(train, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	groups := census.Groups(train)
	cfg := classify.FairLogisticConfig{
		LogisticConfig: classify.LogisticConfig{Epochs: 50, LearningRate: 0.8, L2: 1e-4},
		Lambda:         30,
		Groups:         groups,
		NumGroups:      census.Space().Size(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.TrainFairLogistic(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCensusGenerate measures the synthetic-census substrate at the
// paper's full scale.
func BenchmarkCensusGenerate(b *testing.B) {
	cfg := census.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := census.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpsilonBySpaceSize is the ablation for the ε computation's
// scaling in the number of intersectional groups (|A| = 2^p).
func BenchmarkEpsilonBySpaceSize(b *testing.B) {
	for _, p := range []int{2, 4, 8, 12} {
		attrs := make([]core.Attr, p)
		for i := range attrs {
			attrs[i] = core.Attr{Name: fmt.Sprintf("a%d", i), Values: []string{"0", "1"}}
		}
		space := core.MustSpace(attrs...)
		cpt := core.MustCPT(space, []string{"no", "yes"})
		r := rng.New(1)
		for g := 0; g < space.Size(); g++ {
			p1 := 0.1 + 0.8*r.Float64()
			cpt.MustSetRow(g, 1, 1-p1, p1)
		}
		b.Run(fmt.Sprintf("attrs=%d_groups=%d", p, space.Size()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Epsilon(cpt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMarginalize is the ablation for subset aggregation (the
// Theorem 3.2 machinery) on an 8-attribute space.
func BenchmarkMarginalize(b *testing.B) {
	attrs := make([]core.Attr, 8)
	for i := range attrs {
		attrs[i] = core.Attr{Name: fmt.Sprintf("a%d", i), Values: []string{"0", "1"}}
	}
	space := core.MustSpace(attrs...)
	cpt := core.MustCPT(space, []string{"no", "yes"})
	r := rng.New(2)
	for g := 0; g < space.Size(); g++ {
		p1 := 0.1 + 0.8*r.Float64()
		cpt.MustSetRow(g, 0.5+r.Float64(), 1-p1, p1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpt.Marginalize("a0", "a3", "a6"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmoothedVsEmpirical compares the two estimators' costs
// (Eq. 6 vs Eq. 7) on census-scale counts.
func BenchmarkSmoothedVsEmpirical(b *testing.B) {
	train, _, err := census.Generate(census.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	counts, err := census.IncomeCounts(census.Space(), train)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("empirical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = counts.Empirical()
		}
	})
	b.Run("smoothed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := counts.Smoothed(1, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBayesPosterior measures posterior sampling for the credible-
// interval analysis (100 Θ samples per iteration).
func BenchmarkBayesPosterior(b *testing.B) {
	train, _, err := census.Generate(census.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	counts, err := census.IncomeCounts(census.Space(), train)
	if err != nil {
		b.Fatal(err)
	}
	model, err := bayes.NewDirichletMultinomial(counts, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.SamplePosterior(context.Background(), 100, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaplaceSweep measures the §3.2 noise-route ablation (numeric
// integration of the noisy threshold).
func BenchmarkLaplaceSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LaplaceSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomizedResponse measures the §3.3 calibration experiment.
func BenchmarkRandomizedResponse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RandomizedResponse(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAliasSampler is the substrate ablation behind the census
// generator's categorical draws: alias method vs linear scan.
func BenchmarkAliasSampler(b *testing.B) {
	weights := make([]float64, 64)
	r := rng.New(4)
	for i := range weights {
		weights[i] = r.Float64()
	}
	alias := rng.NewAlias(weights)
	b.Run("alias", func(b *testing.B) {
		rr := rng.New(5)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = alias.Sample(rr)
		}
	})
	b.Run("linear", func(b *testing.B) {
		rr := rng.New(5)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = rr.Categorical(weights)
		}
	})
}

// BenchmarkFig2Mechanism measures the exact (closed-form) threshold CPT
// construction used throughout the worked examples.
func BenchmarkFig2Mechanism(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = mechanism.Fig2CPT()
	}
}

// BenchmarkRepair measures the minimal-movement repair optimizer on the
// 16-group census prediction CPT.
func BenchmarkRepair(b *testing.B) {
	train, _, err := census.Generate(census.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	counts, err := census.IncomeCounts(census.Space(), train)
	if err != nil {
		b.Fatal(err)
	}
	cpt, err := counts.Smoothed(1, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repair.Binary(cpt, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpsilonBootstrap is the headline engine benchmark: a 100k-
// observation contingency table over the 16-group census space,
// bootstrapped with B=200 replicates on the parallel O(cells)
// multinomial engine. The engine's allocations stay O(1) per replicate
// (worker-pool scratch only), which ReportAllocs makes visible.
func BenchmarkEpsilonBootstrap(b *testing.B) {
	space := census.Space()
	counts := core.MustCounts(space, census.IncomeValues)
	// Deterministic skewed fill totalling exactly 100k observations.
	const n = 100_000
	r := rng.New(41)
	weights := make([]float64, space.Size()*2)
	for i := range weights {
		weights[i] = 0.2 + r.Float64()
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	placed := 0
	for i, w := range weights {
		k := int(float64(n) * w / wsum)
		if i == len(weights)-1 {
			k = n - placed
		}
		counts.MustAdd(i/2, i%2, float64(k))
		placed += k
	}
	if counts.Total() != n {
		b.Fatalf("fill error: total %v", counts.Total())
	}
	const replicates = 200
	b.Run("engine", func(b *testing.B) {
		rr := rng.New(8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := resample.EpsilonBootstrap(context.Background(), counts, 1, replicates, 0.95, rr, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultinomialDraw isolates the per-replicate resampling cost:
// one O(cells) conditional-binomial multinomial draw versus the O(n)
// alias-table equivalent at bootstrap scale (n=100k over 32 cells).
func BenchmarkMultinomialDraw(b *testing.B) {
	r := rng.New(12)
	weights := make([]float64, 32)
	for i := range weights {
		weights[i] = 0.2 + r.Float64()
	}
	const n = 100_000
	dst := make([]float64, len(weights))
	b.Run("multinomial", func(b *testing.B) {
		rr := rng.New(13)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rr.Multinomial(dst, n, weights)
		}
	})
	b.Run("alias", func(b *testing.B) {
		rr := rng.New(13)
		alias := rng.NewAlias(weights)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = 0
			}
			for j := 0; j < n; j++ {
				dst[alias.Sample(rr)]++
			}
		}
	})
}

// BenchmarkEpsilonCredible measures the pooled-buffer posterior ε path
// (200 samples) on the census table.
func BenchmarkEpsilonCredible(b *testing.B) {
	train, _, err := census.Generate(census.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	counts, err := census.IncomeCounts(census.Space(), train)
	if err != nil {
		b.Fatal(err)
	}
	model, err := bayes.NewDirichletMultinomial(counts, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.EpsilonCredible(context.Background(), 200, 0.95, r, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrap measures the ε bootstrap at 100 replicates over the
// small census table.
func BenchmarkBootstrap(b *testing.B) {
	train, _, err := census.Generate(census.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	counts, err := census.IncomeCounts(census.Space(), train)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resample.EpsilonBootstrap(context.Background(), counts, 1, 100, 0.95, r, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorObserve measures the streaming monitor's per-decision
// cost (O(1) amortized) on the sharded engine.
func BenchmarkMonitorObserve(b *testing.B) {
	m, err := stream.New(census.Space(), census.IncomeValues, stream.Config{Policy: stream.Exponential{HalfLife: 5000}})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(9)
	groups := make([]int, 4096)
	outcomes := make([]int, 4096)
	for i := range groups {
		groups[i] = r.Intn(16)
		outcomes[i] = r.Intn(2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Observe(groups[i%4096], outcomes[i%4096]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorObserveParallel is the headline streaming benchmark:
// batched ingest (64 observations per batch, the dfserve observe-path
// shape) through the sharded engine, serially and with one ingesting
// goroutine per GOMAXPROCS. Each iteration is one 64-observation batch;
// the parallel ns/op should approach the serial ns/op divided by the
// core count. scripts/bench_stream.sh records both as BENCH_stream.json.
func BenchmarkMonitorObserveParallel(b *testing.B) {
	space := census.Space()
	const batch = 64
	const pool = 1 << 16
	r := rng.New(9)
	groups := make([]int, pool)
	outcomes := make([]int, pool)
	for i := range groups {
		groups[i] = r.Intn(space.Size())
		outcomes[i] = r.Intn(2)
	}
	offsets := pool/batch - 1
	newMonitor := func(b *testing.B) *stream.Monitor {
		m, err := stream.New(space, census.IncomeValues, stream.Config{Policy: stream.Exponential{HalfLife: 5000}})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}

	b.Run("sharded-serial", func(b *testing.B) {
		m := newMonitor(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (i % offsets) * batch
			if err := m.ObserveBatch(groups[off:off+batch], outcomes[off:off+batch]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded-parallel", func(b *testing.B) {
		m := newMonitor(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				off := (i % offsets) * batch
				i++
				if err := m.ObserveBatch(groups[off:off+batch], outcomes[off:off+batch]); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkWatchObserveBatchChecked is the headline incremental-ε
// benchmark: per-batch checked ingest on a census-scale watch (9 binary
// protected attributes, 512 intersectional groups). "incremental" is a
// window monitor's path — each check drains the shards' dirty-cell logs
// and rescans only the touched groups; "snapshot" re-merges every shard
// and recomputes ε from scratch per check (Watch.CheckFull, the check an
// exponential monitor's watch runs). The "limits" cases arm
// perfbench's four metric limits next to ε, at 64- and 1,024-decision
// batches, each paired with CheckFull on an identically armed watch. The
// shard count is pinned so the baseline's O(shards × cells) merge cost
// doesn't vary with the host. scripts/bench_stream.sh records every case
// and gates three ratios: snapshot/incremental ≥ 5× (ε only, batch 64);
// limits/incremental ≤ 2× ε-only incremental at batch 64; and
// limits/incremental below limits/snapshot at batch 1,024.
func BenchmarkWatchObserveBatchChecked(b *testing.B) {
	attrs := make([]core.Attr, 9)
	for i := range attrs {
		attrs[i] = core.Attr{Name: fmt.Sprintf("a%d", i), Values: []string{"0", "1"}}
	}
	space := core.MustSpace(attrs...)
	// perfbench's metric limits: each metric's worst value, so no check
	// ever breaches and every one evaluates all four.
	limits := []stream.MetricThreshold{
		{Metric: fairmetrics.WorstGap{}, Threshold: 1},
		{Metric: fairmetrics.WorstRatio{}, Threshold: 0},
		{Metric: fairmetrics.AlphaIntersectional{Alpha: 0.5}, Threshold: 1},
		{Metric: fairmetrics.DemographicParity{}, Threshold: 1},
	}
	newWatch := func(b *testing.B, limits []stream.MetricThreshold) *stream.Watch {
		m, err := stream.New(space, []string{"deny", "approve"}, stream.Config{
			Policy: stream.Sliding{Window: 1 << 16, Buckets: 8},
			Alpha:  1,
			Shards: 32,
		})
		if err != nil {
			b.Fatal(err)
		}
		// An unreachable threshold keeps alert allocation out of both
		// measurements; every check still runs the full estimator.
		w, err := stream.NewWatch(m, 50, 1, limits...)
		if err != nil {
			b.Fatal(err)
		}
		return w
	}
	r := rng.New(14)
	groups := make([]int, 1024)
	outcomes := make([]int, 1024)
	for i := range groups {
		groups[i] = r.Intn(space.Size())
		outcomes[i] = r.Intn(2)
	}
	incremental := func(limits []stream.MetricThreshold, batch int) func(*testing.B) {
		return func(b *testing.B) {
			w := newWatch(b, limits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.ObserveBatchChecked(groups[:batch], outcomes[:batch]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	snapshot := func(limits []stream.MetricThreshold, batch int) func(*testing.B) {
		return func(b *testing.B) {
			w := newWatch(b, limits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.ObserveBatch(groups[:batch], outcomes[:batch]); err != nil {
					b.Fatal(err)
				}
				if _, _, err := w.CheckFull(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("incremental", incremental(nil, 64))
	b.Run("snapshot", snapshot(nil, 64))
	for _, batch := range []int{64, 1024} {
		b.Run(fmt.Sprintf("limits/batch=%d/incremental", batch), incremental(limits, batch))
		b.Run(fmt.Sprintf("limits/batch=%d/snapshot", batch), snapshot(limits, batch))
	}
}

// BenchmarkMonitorSnapshot measures the merge-on-snapshot read path of
// the sharded monitor: folding every shard into one table (into) and
// the full buffered ε report (epsilon), on a census-scale table after
// 64k observations.
func BenchmarkMonitorSnapshot(b *testing.B) {
	space := census.Space()
	m, err := stream.New(space, census.IncomeValues, stream.Config{Policy: stream.Exponential{HalfLife: 5000}, Alpha: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(10)
	groups := make([]int, 1024)
	outcomes := make([]int, 1024)
	for i := 0; i < 64; i++ {
		for j := range groups {
			groups[j] = r.Intn(space.Size())
			outcomes[j] = r.Intn(2)
		}
		if err := m.ObserveBatch(groups, outcomes); err != nil {
			b.Fatal(err)
		}
	}
	dst := core.MustCounts(space, census.IncomeValues)
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.SnapshotInto(dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("epsilon", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Epsilon(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEqualizedOdds measures the §7.1 conditional-DF computation on
// labeled census predictions.
func BenchmarkEqualizedOdds(b *testing.B) {
	train, _, err := census.Generate(census.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	space := census.Space()
	groups := census.Groups(train)
	ys := make([]int, len(train))
	preds := make([]int, len(train))
	r := rng.New(10)
	for i, p := range train {
		ys[i] = p.Income
		preds[i] = p.Income
		if r.Float64() < 0.15 {
			preds[i] = 1 - preds[i]
		}
	}
	labeled, err := core.FromLabeledObservations(space, census.IncomeValues,
		[]string{"p0", "p1"}, groups, ys, preds)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EqualizedOddsEpsilon(labeled, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistBatch compares the per-point scalar density loop against
// the batched evaluation path (dist.BatchPDF) the Figure 2 density sweep
// and the noisy-threshold quadrature run on. The batch kernels hoist the
// normalizing constants, the per-point division, and the interface
// dispatch out of the loop; both paths run on one goroutine.
func BenchmarkDistBatch(b *testing.B) {
	const points = 1 << 15
	xs := dist.Grid(0, 20, points)
	dst := make([]float64, points)
	families := []struct {
		name string
		d    dist.Dist
	}{
		{"normal", dist.Normal{Mu: 10, Sigma: 2}},
		{"laplace", dist.Laplace{Mu: 10, B: 1.5}},
	}
	for _, f := range families {
		b.Run(f.name+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(points * 8)
			for i := 0; i < b.N; i++ {
				for j, x := range xs {
					dst[j] = f.d.PDF(x)
				}
			}
		})
		b.Run(f.name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(points * 8)
			for i := 0; i < b.N; i++ {
				dist.BatchPDF(f.d, xs, dst)
			}
		})
	}
}

// BenchmarkDistBatchDensityGrid measures the full Figure 2-style sweep:
// grid construction plus batched density evaluation.
func BenchmarkDistBatchDensityGrid(b *testing.B) {
	d := dist.Normal{Mu: 10, Sigma: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, pdf := dist.DensityGrid(d, 4, 16, 4096); len(pdf) != 4096 {
			b.Fatal("bad grid")
		}
	}
}

// BenchmarkAuditor measures the end-to-end audit latency at census scale
// (32,561 observations over the paper's gender × race × nationality
// space): the full ε ladder, bootstrap interval, credible interval and
// interpretation in one Auditor.Run — the request path of cmd/dfserve.
// scripts/bench_json.sh tracks this as BENCH_audit.json across PRs.
func BenchmarkAuditor(b *testing.B) {
	train, _, err := census.Generate(census.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	counts, err := census.IncomeCounts(census.Space(), train)
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name string
		opts []fairness.Option
	}{
		{"ladder-only", []fairness.Option{
			fairness.WithSeed(1),
		}},
		{"bootstrap500", []fairness.Option{
			fairness.WithBootstrap(500, 0.95),
			fairness.WithSeed(1),
		}},
		{"full-uncertainty", []fairness.Option{
			fairness.WithBootstrap(500, 0.95),
			fairness.WithCredible(500, 1, 0.95),
			fairness.WithSeed(1),
		}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			auditor, err := fairness.NewAuditor(counts.Space(), counts.Outcomes(), bench.opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := auditor.Run(context.Background(), counts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetricAudit measures the marginal cost of each pluggable
// metric on the census-scale audit: the baseline ladder-only audit plus
// one metric section (value, witness and subset ladder) per registry
// key. "report" is the full report shape a dashboard pulls: four metric
// sections with ladders, 50 bootstrap replicates and 50 posterior
// samples, all drawn once and scored by ε and every metric. "monitor"
// serves that report from a live monitor (benchMonitorReport), and
// "monitor-mix" replays the repository benchmark's audit stream of
// observes and reports (benchMonitorMix).
// scripts/bench_json.sh tracks this as BENCH_metrics.json across PRs.
func BenchmarkMetricAudit(b *testing.B) {
	train, _, err := census.Generate(census.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	counts, err := census.IncomeCounts(census.Space(), train)
	if err != nil {
		b.Fatal(err)
	}
	type audit struct {
		name string
		keys []string
		opts []fairness.Option
	}
	var audits []audit
	for _, key := range fairness.MetricKeys() {
		audits = append(audits, audit{name: key, keys: []string{key}})
	}
	audits = append(audits, audit{
		name: "report",
		keys: []string{"worst_gap", "worst_ratio", "alpha_if", "demographic_parity"},
		opts: []fairness.Option{fairness.WithBootstrap(50, 0.95), fairness.WithCredible(50, 1, 0.95)},
	})
	for _, a := range audits {
		b.Run(a.name, func(b *testing.B) {
			opts := append([]fairness.Option{fairness.WithMetrics(a.keys...), fairness.WithSeed(1)}, a.opts...)
			auditor, err := fairness.NewAuditor(counts.Space(), counts.Outcomes(), opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := auditor.Run(context.Background(), counts)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Metrics) != len(a.keys) {
					b.Fatal("metric section missing")
				}
			}
		})
	}
	b.Run("monitor", benchMonitorReport)
	b.Run("monitor-mix", benchMonitorMix)
}

// benchMonitorReport replays the repository benchmark's audit request
// in process: a tumbling monitor on the 160-group audit space, warmed
// with a census-sized 32,561-decision batch from internal/loadgen. Each
// op ingests three 64-decision batches, then serves the four-metric
// report with 50 bootstrap replicates and 50 posterior samples through
// Monitor.Audit and renders it as JSON, so the subset ladders come from
// the incremental engine as they do in dfserve.
func benchMonitorReport(b *testing.B) {
	mon, feed := auditMonitor(b, 32561, 64, 1)
	opts := servedReportOptions()
	var req loadgen.Request
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 3; j++ {
			feed.Next(&req)
			if err := mon.ObserveBatch(req.Groups, req.Outcomes); err != nil {
				b.Fatal(err)
			}
		}
		rep, err := mon.Audit(context.Background(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		if rep.LadderSource != fairness.LadderSourceIncremental {
			b.Fatalf("ladder_source %q", rep.LadderSource)
		}
		if err := rep.RenderJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMonitorMix replays the repository benchmark's audit stream in
// process: two tumbling monitors on the 160-group audit space, each
// warmed with a census-sized 32,561-decision batch, then loadgen's
// Mix{Observe: 3, Report: 1} over both monitors with 64-decision
// batches and the served report options. An op is one report with the
// observes the stream sends before it. A report on a monitor that has
// seen no decision since its previous report reuses that report's
// intervals; hits/report is the share that did, and ns/report the time
// spent in Monitor.Audit and rendering alone. benchMonitorReport, where
// every report follows observes, is the always-miss control.
func benchMonitorMix(b *testing.B) {
	space := auditSpace()
	cfg := loadgen.WorkloadConfig{
		Space: space, Outcomes: 2, Monitors: 2, GroupSkew: 0.5,
		BatchSize: 32561, Mix: loadgen.Mix{Observe: 1},
		BaseRate: 0.2, RateSpread: 0.5, Seed: 1,
	}
	warm, err := loadgen.NewSynth(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	var req loadgen.Request
	mons := make([]*fairness.Monitor, cfg.Monitors)
	for i := range mons {
		if mons[i], err = fairness.NewTumblingMonitor(space, []string{"y0", "y1"}, 1<<30, 1); err != nil {
			b.Fatal(err)
		}
		warm.Next(&req)
		if err := mons[i].ObserveBatch(req.Groups, req.Outcomes); err != nil {
			b.Fatal(err)
		}
	}
	cfg.BatchSize, cfg.Mix = 64, loadgen.Mix{Observe: 3, Report: 1}
	feed, err := loadgen.NewSynth(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := servedReportOptions()
	var reporting time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for feed.Next(&req); req.Op != loadgen.OpReport; feed.Next(&req) {
			if err := mons[req.Monitor].ObserveBatch(req.Groups, req.Outcomes); err != nil {
				b.Fatal(err)
			}
		}
		start := time.Now()
		rep, err := mons[req.Monitor].Audit(context.Background(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.RenderJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
		reporting += time.Since(start)
	}
	b.StopTimer()
	hits := 0
	for _, mon := range mons {
		hits += fairness.IntervalMemoHits(mon)
	}
	b.ReportMetric(float64(reporting.Nanoseconds())/float64(b.N), "ns/report")
	b.ReportMetric(float64(hits)/float64(b.N), "hits/report")
}

// servedReportOptions request the repository benchmark's audit report:
// four metric sections, 50 bootstrap replicates and 50 posterior samples.
func servedReportOptions() []fairness.Option {
	return []fairness.Option{
		fairness.WithMetrics("worst_gap", "worst_ratio", "alpha_if", "demographic_parity"),
		fairness.WithBootstrap(50, 0.95),
		fairness.WithCredible(50, 1, 0.95),
		fairness.WithSeed(1),
	}
}

// BenchmarkReportRenderJSON isolates the serialization cost of the
// stable JSON schema from the analysis itself. "admissions" is the small
// paper example with a bootstrap and a repair plan; "served" is the
// report the repository benchmark's audit workload requests from a
// monitor (160 groups, five 31-row ladders, 50 bootstrap replicates and
// 50 posterior samples, about 59 KB of JSON).
func BenchmarkReportRenderJSON(b *testing.B) {
	counts := datasets.Admissions()
	auditor, err := fairness.NewAuditor(counts.Space(), counts.Outcomes(),
		fairness.WithBootstrap(200, 0.95),
		fairness.WithRepairTarget(0.5),
	)
	if err != nil {
		b.Fatal(err)
	}
	admissions, err := auditor.Run(context.Background(), counts)
	if err != nil {
		b.Fatal(err)
	}
	mon, _ := auditMonitor(b, 32561, 64, 1)
	served, err := mon.Audit(context.Background(), servedReportOptions()...)
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name   string
		report *fairness.Report
	}{
		{"admissions", admissions},
		{"served", served},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := bench.report.RenderJSON(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
