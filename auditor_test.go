package fairness_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	fairness "repro"
	"repro/internal/datasets"
)

func TestAuditorAdmissionsFullAudit(t *testing.T) {
	counts := datasets.Admissions()
	auditor, err := fairness.NewAuditor(counts.Space(), counts.Outcomes(),
		fairness.WithBootstrap(200, 0.95),
		fairness.WithCredible(200, 1, 0.95),
		fairness.WithRepairTarget(0.5),
		fairness.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := auditor.Run(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rep.Epsilon)-1.511) > 5e-4 {
		t.Errorf("full eps = %v", rep.Epsilon)
	}
	if len(rep.Ladder) != 3 {
		t.Errorf("ladder rows = %d, want 3 subsets", len(rep.Ladder))
	}
	// The ladder is sorted by increasing eps.
	for i := 1; i < len(rep.Ladder); i++ {
		if rep.Ladder[i].Epsilon < rep.Ladder[i-1].Epsilon {
			t.Errorf("ladder not sorted: %v", rep.Ladder)
		}
	}
	if rep.Bootstrap == nil {
		t.Fatal("bootstrap interval missing")
	}
	if !(float64(rep.Bootstrap.Lo) <= float64(rep.Epsilon) && float64(rep.Epsilon) <= float64(rep.Bootstrap.Hi)) {
		t.Errorf("point %v outside bootstrap interval [%v, %v]",
			rep.Epsilon, rep.Bootstrap.Lo, rep.Bootstrap.Hi)
	}
	if rep.Credible == nil {
		t.Fatal("credible interval missing")
	}
	if !(float64(rep.Credible.Lo) <= float64(rep.Credible.Median) && float64(rep.Credible.Median) <= float64(rep.Credible.Hi)) {
		t.Errorf("credible median %v outside [%v, %v]",
			rep.Credible.Median, rep.Credible.Lo, rep.Credible.Hi)
	}
	if len(rep.Reversals) == 0 {
		t.Error("Simpson reversal not reported")
	}
	if rep.Repair == nil {
		t.Fatal("repair plan missing")
	}
	if rep.Repair.Movement <= 0 {
		t.Error("repair plan claims zero movement on an unfair table")
	}
	if float64(rep.SubsetBound) != 2*float64(rep.Epsilon) {
		t.Error("subset bound wrong")
	}
	if rep.Witness.Outcome == "" || rep.Witness.MostFavored == "" {
		t.Errorf("witness labels missing: %+v", rep.Witness)
	}
}

func TestAuditorWithoutOptionalAnalyses(t *testing.T) {
	counts := datasets.Lending()
	auditor, err := fairness.NewAuditor(counts.Space(), counts.Outcomes(),
		fairness.WithSubsets(false))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := auditor.Run(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ladder) != 1 {
		t.Errorf("ladder rows = %d, want the full intersection only", len(rep.Ladder))
	}
	if rep.Bootstrap != nil || rep.Credible != nil || rep.Repair != nil || rep.EqualizedOdds != nil {
		t.Error("optional analyses present without being requested")
	}
}

func TestAuditorSmoothedEstimator(t *testing.T) {
	counts := datasets.Admissions()
	auditor := fairness.MustAuditor(counts.Space(), counts.Outcomes(), fairness.WithAlpha(1))
	rep, err := auditor.Run(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Estimator, "Eq. 7") || rep.Alpha != 1 {
		t.Errorf("estimator label %q alpha %v", rep.Estimator, rep.Alpha)
	}
	if math.Abs(float64(rep.Epsilon)-1.511) > 0.2 {
		t.Errorf("smoothed eps = %v drifted too far", rep.Epsilon)
	}
}

func TestOptionValidation(t *testing.T) {
	counts := datasets.Admissions()
	space, outcomes := counts.Space(), counts.Outcomes()
	cases := []struct {
		name string
		opt  fairness.Option
	}{
		{"negative alpha", fairness.WithAlpha(-1)},
		{"NaN alpha", fairness.WithAlpha(math.NaN())},
		{"zero bootstrap replicates", fairness.WithBootstrap(0, 0.95)},
		{"bootstrap level 0", fairness.WithBootstrap(100, 0)},
		{"bootstrap level 1", fairness.WithBootstrap(100, 1)},
		{"bootstrap level > 1", fairness.WithBootstrap(100, 95)},
		{"bootstrap level negative", fairness.WithBootstrap(100, -0.5)},
		{"credible level 0", fairness.WithCredible(100, 1, 0)},
		{"credible level 1.5", fairness.WithCredible(100, 1, 1.5)},
		{"credible prior 0", fairness.WithCredible(100, 0, 0.9)},
		{"credible prior negative", fairness.WithCredible(100, -1, 0.9)},
		{"credible zero samples", fairness.WithCredible(0, 1, 0.9)},
		{"repair target 0", fairness.WithRepairTarget(0)},
		{"repair target inf", fairness.WithRepairTarget(math.Inf(1))},
		{"negative workers", fairness.WithWorkers(-1)},
		{"nil equalized odds", fairness.WithEqualizedOdds(nil)},
	}
	for _, tc := range cases {
		if _, err := fairness.NewAuditor(space, outcomes, tc.opt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The error for an out-of-range level should be descriptive.
	_, err := fairness.NewAuditor(space, outcomes, fairness.WithBootstrap(100, 95))
	if err == nil || !strings.Contains(err.Error(), "(0,1)") {
		t.Errorf("bootstrap level error not descriptive: %v", err)
	}
}

func TestNewAuditorValidation(t *testing.T) {
	counts := datasets.Admissions()
	if _, err := fairness.NewAuditor(nil, counts.Outcomes()); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := fairness.NewAuditor(counts.Space(), []string{"only"}); err == nil {
		t.Error("single outcome accepted")
	}
	if _, err := fairness.NewAuditor(counts.Space(), counts.Outcomes(), nil); err == nil {
		t.Error("nil option accepted")
	}
}

func TestAuditorRunValidation(t *testing.T) {
	counts := datasets.Admissions()
	auditor := fairness.MustAuditor(counts.Space(), counts.Outcomes())
	if _, err := auditor.Run(context.Background(), nil); err == nil {
		t.Error("nil counts accepted")
	}
	// Counts over a different space must be rejected.
	other := datasets.Lending()
	if _, err := auditor.Run(context.Background(), other); err == nil {
		t.Error("mismatched counts accepted")
	}
	// A structurally identical space built independently is accepted.
	clone := datasets.Admissions()
	if _, err := auditor.Run(context.Background(), clone); err != nil {
		t.Errorf("structurally identical space rejected: %v", err)
	}
}

func TestAuditorRunPreCanceledContext(t *testing.T) {
	counts := datasets.Admissions()
	auditor := fairness.MustAuditor(counts.Space(), counts.Outcomes(),
		fairness.WithBootstrap(500, 0.95))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := auditor.Run(ctx, counts)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAuditorRunCancelsInFlight(t *testing.T) {
	counts := datasets.Admissions()
	// Enough draws that the fan-out takes well over the cancel delay on
	// any machine; cancellation must cut it short. With both engines the
	// replicates and the posterior samples share one fan-out.
	for _, tc := range []struct {
		name string
		opts []fairness.Option
	}{
		{"bootstrap", []fairness.Option{fairness.WithBootstrap(5_000_000, 0.95)}},
		{"both engines", []fairness.Option{fairness.WithBootstrap(2_500_000, 0.95), fairness.WithCredible(2_500_000, 1, 0.95)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			auditor := fairness.MustAuditor(counts.Space(), counts.Outcomes(), tc.opts...)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := auditor.Run(ctx, counts)
			elapsed := time.Since(start)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if elapsed > 5*time.Second {
				t.Errorf("cancellation took %v, want prompt return", elapsed)
			}
		})
	}
}

func TestAuditorEqualizedOdds(t *testing.T) {
	counts := datasets.Admissions()
	space, outcomes := counts.Space(), counts.Outcomes()
	lc, err := fairness.NewLabeledCounts(space, []string{"neg", "pos"}, outcomes)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < space.Size(); g++ {
		for l := 0; l < 2; l++ {
			for y := 0; y < 2; y++ {
				for n := 0; n < 5+g+3*l*y; n++ {
					if err := lc.Observe(g, l, y); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	auditor, err := fairness.NewAuditor(space, outcomes, fairness.WithEqualizedOdds(lc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := auditor.Run(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EqualizedOdds == nil {
		t.Fatal("equalized-odds section missing")
	}
	if len(rep.EqualizedOdds.PerLabel) != 2 {
		t.Errorf("per-label strata = %d, want 2", len(rep.EqualizedOdds.PerLabel))
	}
	// The option deep-copies: mutating the caller's table afterwards must
	// not change later runs (the Auditor is immutable).
	for i := 0; i < 500; i++ {
		if err := lc.Observe(0, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	rep2, err := auditor.Run(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if float64(rep2.EqualizedOdds.Epsilon) != float64(rep.EqualizedOdds.Epsilon) {
		t.Error("caller mutation of the labeled counts leaked into the auditor")
	}
	// A labeled table over a different space is rejected at construction.
	otherLC, err := fairness.NewLabeledCounts(datasets.Lending().Space(), []string{"neg", "pos"}, outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fairness.NewAuditor(space, outcomes, fairness.WithEqualizedOdds(otherLC)); err == nil {
		t.Error("mismatched labeled counts accepted")
	}
}

func TestAuditorDeterministicAcrossRuns(t *testing.T) {
	counts := datasets.Admissions()
	render := func() string {
		auditor := fairness.MustAuditor(counts.Space(), counts.Outcomes(),
			fairness.WithBootstrap(100, 0.95),
			fairness.WithCredible(100, 1, 0.9),
			fairness.WithRepairTarget(0.5),
			fairness.WithSeed(7),
		)
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
	a, b := render(), render()
	if a != b {
		t.Error("identical seed/inputs produced different JSON")
	}
	// A different worker cap must not change the bytes either.
	auditor := fairness.MustAuditor(counts.Space(), counts.Outcomes(),
		fairness.WithBootstrap(100, 0.95),
		fairness.WithCredible(100, 1, 0.9),
		fairness.WithRepairTarget(0.5),
		fairness.WithSeed(7),
		fairness.WithWorkers(1),
	)
	rep, err := auditor.Run(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != a {
		t.Error("worker cap changed report bytes")
	}
}

func TestMonitorAudit(t *testing.T) {
	space := fairness.MustSpace(
		fairness.Attr{Name: "gender", Values: []string{"M", "F"}},
	)
	mon, err := fairness.NewMonitor(space, []string{"deny", "approve"}, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		g := i % 2
		y := 0
		// Group 0 approved 3x as often as group 1.
		if (g == 0 && i%4 != 0) || (g == 1 && i%4 == 0) {
			y = 1
		}
		if err := mon.Observe(g, y); err != nil {
			t.Fatal(err)
		}
	}
	if mon.Seen() != 400 {
		t.Errorf("seen = %d", mon.Seen())
	}
	eps, err := mon.Epsilon()
	if err != nil {
		t.Fatal(err)
	}
	if eps.Epsilon <= 0 {
		t.Errorf("monitor eps = %v, want > 0", eps.Epsilon)
	}
	rep, err := mon.Audit(context.Background(), fairness.WithCredible(100, 1, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Credible == nil {
		t.Error("credible section missing from monitor audit")
	}
	// The snapshot audit uses the monitor's smoothing alpha by default.
	if rep.Alpha != 1 {
		t.Errorf("audit alpha = %v, want the monitor's 1", rep.Alpha)
	}
	if float64(rep.Epsilon) <= 0 {
		t.Errorf("audit eps = %v, want > 0", rep.Epsilon)
	}
}

func TestWatchAlerts(t *testing.T) {
	space := fairness.MustSpace(fairness.Attr{Name: "g", Values: []string{"a", "b"}})
	mon, err := fairness.NewMonitor(space, []string{"deny", "approve"}, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	watch, err := fairness.NewWatch(mon, 0.5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fairness.NewWatch(nil, 0.5, 50); err == nil {
		t.Error("nil monitor accepted")
	}
	if _, err := fairness.NewWatch(mon, 0, 50); err == nil {
		t.Error("non-positive threshold accepted")
	}
	var alert *fairness.Alert
	for i := 0; i < 2000 && alert == nil; i++ {
		g := i % 2
		y := 0
		// Group a approved far more often than group b.
		if g == 0 || i%10 == 0 {
			y = 1
		}
		alert, err = watch.ObserveChecked(g, y)
		if err != nil {
			t.Fatal(err)
		}
	}
	if alert == nil {
		t.Fatal("watch never alerted on a grossly unfair stream")
	}
	if alert.Epsilon <= alert.Threshold {
		t.Errorf("alert eps %v not above threshold %v", alert.Epsilon, alert.Threshold)
	}
	// The embedded monitor still audits through the watch.
	rep, err := watch.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if float64(rep.Epsilon) <= 0 {
		t.Errorf("watch audit eps = %v", rep.Epsilon)
	}
}
