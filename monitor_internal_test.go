package fairness

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
)

// These tests live inside the package to reach Monitor.ladderHook: the
// seam that replaces the incremental subset-ladder source. Forcing it to
// fail pins that Audit's fallback to the snapshot ladder is visible in
// the report (ladder_source + ladder_fallback_reason) and never silent;
// wrapping it shows which ladders the incremental engine supplied.

func skewedTumblingMonitor(t *testing.T) *Monitor {
	t.Helper()
	space := MustSpace(
		Attr{Name: "gender", Values: []string{"M", "F"}},
		Attr{Name: "race", Values: []string{"A", "B"}},
	)
	mon, err := NewTumblingMonitor(space, []string{"deny", "approve"}, 1<<20, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		g := i % 4
		y := 0
		if i%(g+2) == 0 { // group-dependent approval rates
			y = 1
		}
		if err := mon.Observe(g, y); err != nil {
			t.Fatal(err)
		}
	}
	return mon
}

func TestAuditLadderSourceIncremental(t *testing.T) {
	mon := skewedTumblingMonitor(t)
	rep, err := mon.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LadderSource != LadderSourceIncremental {
		t.Errorf("ladder_source = %q, want %q", rep.LadderSource, LadderSourceIncremental)
	}
	if rep.LadderFallbackReason != "" {
		t.Errorf("unexpected fallback reason %q on the incremental path", rep.LadderFallbackReason)
	}
	if len(rep.Ladder) == 0 {
		t.Error("incremental audit lost the subset ladder")
	}
}

func TestAuditForcedIncrementalFailureIsVisible(t *testing.T) {
	mon := skewedTumblingMonitor(t)
	clean, err := mon.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	mon.ladderHook = func([]Metric) (*Counts, [][]SubsetMetric, error) {
		return nil, nil, errors.New("synthetic ladder corruption")
	}
	rep, err := mon.Audit(context.Background())
	if err != nil {
		t.Fatalf("audit must survive an incremental ladder failure, got %v", err)
	}
	if rep.LadderSource != LadderSourceSnapshot {
		t.Errorf("ladder_source = %q, want %q", rep.LadderSource, LadderSourceSnapshot)
	}
	if want := "incremental ladder failed: synthetic ladder corruption"; rep.LadderFallbackReason != want {
		t.Errorf("ladder_fallback_reason = %q, want %q", rep.LadderFallbackReason, want)
	}
	// The fallback must be a real ladder, not a stub: identical rows to
	// the incremental path (which is bit-identical to the snapshot
	// recompute on window policies).
	if len(rep.Ladder) != len(clean.Ladder) {
		t.Fatalf("fallback ladder has %d rows, incremental had %d", len(rep.Ladder), len(clean.Ladder))
	}
	for i := range rep.Ladder {
		if rep.Ladder[i].Epsilon != clean.Ladder[i].Epsilon {
			t.Errorf("ladder row %d: fallback ε %v != incremental ε %v",
				i, rep.Ladder[i].Epsilon, clean.Ladder[i].Epsilon)
		}
	}
}

func TestAuditExponentialPolicyRecordsDistinctReason(t *testing.T) {
	space := MustSpace(Attr{Name: "g", Values: []string{"a", "b"}})
	mon, err := NewMonitor(space, []string{"deny", "approve"}, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		g := i % 2
		y := 0
		if g == 0 || i%5 == 0 {
			y = 1
		}
		if err := mon.Observe(g, y); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := mon.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LadderSource != LadderSourceSnapshot {
		t.Errorf("ladder_source = %q, want %q", rep.LadderSource, LadderSourceSnapshot)
	}
	if !strings.Contains(rep.LadderFallbackReason, "unavailable for this window policy") {
		t.Errorf("ladder_fallback_reason = %q, want the distinct ErrIncrementalUnavailable wording",
			rep.LadderFallbackReason)
	}
	if !strings.Contains(rep.LadderFallbackReason, ErrIncrementalUnavailable.Error()) {
		t.Errorf("ladder_fallback_reason = %q should carry the underlying error", rep.LadderFallbackReason)
	}
}

func TestAuditSubsetsDisabledUsesSnapshotWithoutReason(t *testing.T) {
	mon := skewedTumblingMonitor(t)
	rep, err := mon.Audit(context.Background(), WithSubsets(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LadderSource != LadderSourceSnapshot || rep.LadderFallbackReason != "" {
		t.Errorf("ladder_source = %q, reason = %q; incremental was never attempted, so want snapshot with no reason",
			rep.LadderSource, rep.LadderFallbackReason)
	}
}

// TestAuditMixedLadderSources: on a window policy the ladders of ε and
// every metric with an extrema form come from the incremental engine and
// only the others walk the snapshot lattice, yet the report equals
// Auditor.Run over the same counts in everything but ladder_source.
func TestAuditMixedLadderSources(t *testing.T) {
	mon := skewedTumblingMonitor(t)
	var incremental []string
	mon.ladderHook = func(ms []Metric) (*Counts, [][]SubsetMetric, error) {
		counts, ladders, err := mon.inner.MetricSubsets(ms)
		for j, l := range ladders {
			if l != nil {
				incremental = append(incremental, ms[j].Key())
			}
		}
		return counts, ladders, err
	}
	opts := []Option{WithMetrics("subgroup", "worst_gap"), WithBootstrap(40, 0.9), WithCredible(40, 1, 0.9), WithSeed(5)}
	rep, err := mon.Audit(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"epsilon", "worst_gap"}; !slices.Equal(incremental, want) {
		t.Fatalf("incremental ladders for %v, want %v", incremental, want)
	}
	if rep.LadderSource != LadderSourceIncremental {
		t.Fatalf("ladder_source = %q, want %q", rep.LadderSource, LadderSourceIncremental)
	}
	snap, err := mon.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	auditor, err := NewAuditor(mon.Space(), mon.Outcomes(), append([]Option{WithAlpha(mon.alpha)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := auditor.Run(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	want.LadderSource = rep.LadderSource
	var got, exp bytes.Buffer
	if err := rep.RenderJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.RenderJSON(&exp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("monitor report differs from Auditor.Run over the same counts:\n%s\nvs\n%s", got.Bytes(), exp.Bytes())
	}
}
