package fairness_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	fairness "repro"
	"repro/internal/datasets"
)

var allMetricKeys = []string{
	"alpha_if", "demographic_parity", "epsilon", "subgroup", "worst_gap", "worst_ratio",
}

func TestMetricRegistry(t *testing.T) {
	keys := fairness.MetricKeys()
	if len(keys) != len(allMetricKeys) {
		t.Fatalf("MetricKeys() = %v, want %v", keys, allMetricKeys)
	}
	for i, k := range allMetricKeys {
		if keys[i] != k {
			t.Fatalf("MetricKeys() = %v, want sorted %v", keys, allMetricKeys)
		}
		m, err := fairness.MetricByKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if m.Key() != k {
			t.Errorf("MetricByKey(%q).Key() = %q", k, m.Key())
		}
		if m.Describe() == "" {
			t.Errorf("metric %q has no description", k)
		}
	}
	if _, err := fairness.MetricByKey("bogus"); err == nil || !strings.Contains(err.Error(), "worst_gap") {
		t.Errorf("unknown key error %v should list the known keys", err)
	}
}

func TestWithMetricsValidation(t *testing.T) {
	counts := datasets.Admissions()
	space, outcomes := counts.Space(), counts.Outcomes()
	if _, err := fairness.NewAuditor(space, outcomes, fairness.WithMetrics()); err == nil {
		t.Error("empty key list accepted")
	}
	if _, err := fairness.NewAuditor(space, outcomes, fairness.WithMetrics("nope")); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := fairness.NewAuditor(space, outcomes,
		fairness.WithMetrics("worst_gap", "worst_gap")); err == nil {
		t.Error("duplicate key accepted")
	}
	if _, err := fairness.NewAuditor(space, outcomes, fairness.WithMetric(nil)); err == nil {
		t.Error("nil metric accepted")
	}
	// Applicability is checked at construction: worst_ratio needs binary
	// outcomes.
	tri := fairness.MustSpace(fairness.Attr{Name: "g", Values: []string{"a", "b"}})
	if _, err := fairness.NewAuditor(tri, []string{"x", "y", "z"},
		fairness.WithMetrics("worst_ratio")); err == nil {
		t.Error("worst_ratio accepted on a three-outcome vocabulary")
	}
}

// metricsGoldenOptions is the full multi-metric pipeline: every registry
// metric with subset ladders, bootstrap and credible uncertainty.
func metricsGoldenOptions(workers int) []fairness.Option {
	return []fairness.Option{
		fairness.WithMetrics("worst_gap", "worst_ratio", "alpha_if", "subgroup", "demographic_parity"),
		fairness.WithBootstrap(100, 0.95),
		fairness.WithCredible(100, 1, 0.95),
		fairness.WithSeed(7),
		fairness.WithWorkers(workers),
	}
}

func TestAuditMetricsEndToEnd(t *testing.T) {
	counts := datasets.Admissions()
	auditor, err := fairness.NewAuditor(counts.Space(), counts.Outcomes(), metricsGoldenOptions(0)...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := auditor.Run(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) != 5 {
		t.Fatalf("metrics sections = %d, want 5", len(rep.Metrics))
	}
	byKey := map[string]fairness.MetricReport{}
	for _, mr := range rep.Metrics {
		byKey[mr.Key] = mr
		if mr.Description == "" {
			t.Errorf("metric %q: empty description", mr.Key)
		}
		if len(mr.Ladder) != len(rep.Ladder) {
			t.Errorf("metric %q: ladder has %d rows, ε ladder has %d", mr.Key, len(mr.Ladder), len(rep.Ladder))
		}
		if mr.Bootstrap == nil || mr.Credible == nil {
			t.Errorf("metric %q: missing uncertainty sections", mr.Key)
			continue
		}
		if mr.Bootstrap.Lo > mr.Bootstrap.Hi {
			t.Errorf("metric %q: bootstrap interval [%v, %v] inverted", mr.Key, mr.Bootstrap.Lo, mr.Bootstrap.Hi)
		}
		if mr.Credible.Lo > mr.Credible.Hi {
			t.Errorf("metric %q: credible interval [%v, %v] inverted", mr.Key, mr.Credible.Lo, mr.Credible.Hi)
		}
		// The metric ladder is sorted least→most unfair under the
		// metric's own orientation.
		m, err := fairness.MetricByKey(mr.Key)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(mr.Ladder); i++ {
			a, b := float64(mr.Ladder[i-1].Value), float64(mr.Ladder[i].Value)
			if fairness.MetricWorse(m, a, b) {
				t.Errorf("metric %q: ladder not sorted at row %d (%v worse than %v)", mr.Key, i, a, b)
			}
		}
	}
	// Orientation spot checks on the admissions table (a genuinely unfair
	// dataset): the gap family is positive, the ratio strictly below 1.
	if v := float64(byKey["worst_gap"].Value); !(v > 0 && v <= 1) {
		t.Errorf("worst_gap = %v, want in (0, 1]", v)
	}
	if v := float64(byKey["worst_ratio"].Value); !(v >= 0 && v < 1) {
		t.Errorf("worst_ratio = %v, want in [0, 1)", v)
	}
	if v := float64(byKey["demographic_parity"].Value); !(v > 0) {
		t.Errorf("demographic_parity = %v, want > 0", v)
	}
	// WorstRatio breaches downward: parity (1) does not breach a 0.8
	// line, the measured ratio does.
	wr, err := fairness.MetricByKey("worst_ratio")
	if err != nil {
		t.Fatal(err)
	}
	if fairness.MetricBreached(wr, 1, 0.8) {
		t.Error("ratio 1 must not breach the 0.8 line")
	}
	if v := float64(byKey["worst_ratio"].Value); v < 0.8 && !fairness.MetricBreached(wr, v, 0.8) {
		t.Errorf("ratio %v under the 0.8 line must breach", v)
	}
}

// TestMetricReportDeterministic: every metric flows through the same
// deterministic engines as ε, so the full multi-metric JSON report is
// byte-identical across runs, worker caps and GOMAXPROCS settings.
func TestMetricReportDeterministic(t *testing.T) {
	counts := datasets.Admissions()
	render := func(workers int) string {
		auditor := fairness.MustAuditor(counts.Space(), counts.Outcomes(), metricsGoldenOptions(workers)...)
		rep, err := auditor.Run(context.Background(), counts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.RenderJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	base := render(0)
	for _, workers := range []int{1, 2, 7} {
		if got := render(workers); got != base {
			t.Fatalf("workers=%d changed the multi-metric report bytes", workers)
		}
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	if got := render(0); got != base {
		t.Fatal("GOMAXPROCS=2 changed the multi-metric report bytes")
	}
}

// TestAuditMetricSectionsMatchSingleMetricAudits: a report requesting
// every registry metric, with ladders, bootstrap and posterior, carries
// exactly the ε sections of a report without metrics and, per metric,
// exactly the section of a report requesting that metric alone — the
// fused engines hand each section its own metric's results.
func TestAuditMetricSectionsMatchSingleMetricAudits(t *testing.T) {
	counts := datasets.Admissions()
	run := func(keys ...string) *fairness.Report {
		opts := []fairness.Option{
			fairness.WithBootstrap(60, 0.9),
			fairness.WithCredible(60, 1, 0.9),
			fairness.WithSeed(11),
		}
		if len(keys) > 0 {
			opts = append(opts, fairness.WithMetrics(keys...))
		}
		rep, err := fairness.MustAuditor(counts.Space(), counts.Outcomes(), opts...).Run(context.Background(), counts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	all := run(allMetricKeys...)
	plain := run()
	if !reflect.DeepEqual(all.Ladder, plain.Ladder) || !reflect.DeepEqual(all.Bootstrap, plain.Bootstrap) ||
		!reflect.DeepEqual(all.Credible, plain.Credible) {
		t.Fatal("requesting metrics changed the ε sections")
	}
	if len(all.Metrics) != len(allMetricKeys) {
		t.Fatalf("got %d metric sections, want %d", len(all.Metrics), len(allMetricKeys))
	}
	for i, key := range allMetricKeys {
		single := run(key)
		if !reflect.DeepEqual(all.Metrics[i], single.Metrics[0]) {
			t.Fatalf("metric %s: section differs from a single-metric audit:\n%+v\nvs\n%+v", key, all.Metrics[i], single.Metrics[0])
		}
	}
}

func TestWatchMetricThresholds(t *testing.T) {
	newMon := func() *fairness.Monitor {
		space := fairness.MustSpace(fairness.Attr{Name: "g", Values: []string{"a", "b"}})
		mon, err := fairness.NewTumblingMonitor(space, []string{"deny", "approve"}, 1<<20, 1)
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	worstRatio, err := fairness.MetricByKey("worst_ratio")
	if err != nil {
		t.Fatal(err)
	}

	// A metric-only watch: ε threshold 0 is legal when metrics are armed.
	watch, err := fairness.NewWatch(newMon(), 0, 20,
		fairness.MetricThreshold{Metric: worstRatio, Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	var alert *fairness.Alert
	for i := 0; i < 400 && alert == nil; i++ {
		g := i % 2
		y := 0
		if g == 0 || i%10 == 0 { // group a approved ~10x as often
			y = 1
		}
		alert, err = watch.ObserveChecked(g, y)
		if err != nil {
			t.Fatal(err)
		}
	}
	if alert == nil {
		t.Fatal("no alert despite the ratio sitting far below 0.8")
	}
	if alert.Metric != "worst_ratio" {
		t.Errorf("alert metric = %q, want worst_ratio", alert.Metric)
	}
	if alert.Epsilon >= 0.8 {
		t.Errorf("alert value = %v, want below the 0.8 line", alert.Epsilon)
	}
	if alert.Threshold != 0.8 {
		t.Errorf("alert threshold = %v", alert.Threshold)
	}

	// Constructor validation: nil metric, inapplicable metric, a zero ε
	// threshold without any metrics, a NaN or infinite minimum mass and a
	// NaN metric limit are rejected — NaN compares false, so the gate or
	// the limit would otherwise never act.
	if _, err := fairness.NewWatch(newMon(), 0, 20); err == nil {
		t.Error("zero threshold with no metrics accepted")
	}
	if _, err := fairness.NewWatch(newMon(), 0, 20, fairness.MetricThreshold{}); err == nil {
		t.Error("nil metric threshold accepted")
	}
	for _, tc := range []struct {
		name         string
		minEffective float64
		limit        float64
		wantErr      string
	}{
		{"NaN minEffective", math.NaN(), 0.8, "minEffective"},
		{"+Inf minEffective", math.Inf(1), 0.8, "minEffective"},
		{"NaN worst_ratio limit", 20, math.NaN(), "worst_ratio"},
	} {
		_, err := fairness.NewWatch(newMon(), 0, tc.minEffective,
			fairness.MetricThreshold{Metric: worstRatio, Threshold: tc.limit})
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: NewWatch error = %v, want one naming %q", tc.name, err, tc.wantErr)
		}
	}
	triSpace := fairness.MustSpace(fairness.Attr{Name: "g", Values: []string{"a", "b"}})
	triMon, err := fairness.NewTumblingMonitor(triSpace, []string{"x", "y", "z"}, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fairness.NewWatch(triMon, 0, 20,
		fairness.MetricThreshold{Metric: worstRatio, Threshold: 0.8}); err == nil {
		t.Error("worst_ratio watch accepted on a three-outcome monitor")
	}
}

// TestMonitorMetricAudit: the live window → audit path carries metric
// sections like any counts audit, and the text renderer includes them.
func TestMonitorMetricAudit(t *testing.T) {
	space := fairness.MustSpace(fairness.Attr{Name: "g", Values: []string{"a", "b"}})
	mon, err := fairness.NewTumblingMonitor(space, []string{"deny", "approve"}, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		g := i % 2
		y := 0
		if g == 0 || i%6 == 0 {
			y = 1
		}
		if err := mon.Observe(g, y); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := mon.Audit(context.Background(),
		fairness.WithMetrics("worst_gap", "worst_ratio", "alpha_if"),
		fairness.WithCredible(50, 1, 0.9),
		fairness.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) != 3 {
		t.Fatalf("metrics sections = %d, want 3", len(rep.Metrics))
	}
	for _, mr := range rep.Metrics {
		if mr.Credible == nil {
			t.Errorf("metric %q: credible section missing", mr.Key)
		}
	}
	var buf bytes.Buffer
	if err := rep.RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"metric worst_gap", "metric worst_ratio", "metric alpha_if", "lower is worse"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}
