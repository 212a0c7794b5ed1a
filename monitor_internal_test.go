package fairness

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// These tests live inside the package to rebuild a monitor's report
// with Auditor.Run under the monitor's own alpha: Audit takes its ladders
// from exactly one source per report, recorded in ladder_source, and
// either source yields the bytes Auditor.Run produces over the same
// counts.

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
	if len(rep.Ladder) == 0 {
		t.Error("incremental audit lost the subset ladder")
	}
}

// TestAuditExponentialPolicyUsesSnapshotLadder: the exponential policy
// never maintains incremental ladders, so its report walks the snapshot
// and says so, with the bytes of Auditor.Run over that snapshot.
func TestAuditExponentialPolicyUsesSnapshotLadder(t *testing.T) {
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
	opts := []Option{WithMetrics("worst_gap"), WithCredible(40, 1, 0.9), WithSeed(5)}
	rep, err := mon.Audit(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LadderSource != LadderSourceSnapshot {
		t.Errorf("ladder_source = %q, want %q", rep.LadderSource, LadderSourceSnapshot)
	}
	requireRunBytes(t, mon, rep, opts)
}

// TestAuditColdWindowMonitorIsDegenerate: a window monitor with nothing
// observed has no groups to compare. The incremental ladder says so, and
// Audit returns that error instead of retrying the snapshot walk, which
// would fail on the same counts.
func TestAuditColdWindowMonitorIsDegenerate(t *testing.T) {
	space := MustSpace(Attr{Name: "a", Values: []string{"x", "y"}}, Attr{Name: "b", Values: []string{"p", "q"}})
	mon, err := NewTumblingMonitor(space, []string{"deny", "approve"}, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Audit(context.Background()); !errors.Is(err, ErrDegenerateSupport) {
		t.Fatalf("cold audit: err = %v, want ErrDegenerateSupport", err)
	}
}

func TestAuditSubsetsDisabledUsesSnapshotWithoutReason(t *testing.T) {
	mon := skewedTumblingMonitor(t)
	rep, err := mon.Audit(context.Background(), WithSubsets(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LadderSource != LadderSourceSnapshot {
		t.Errorf("ladder_source = %q; incremental was never attempted, so want %q",
			rep.LadderSource, LadderSourceSnapshot)
	}
}

// TestAuditMixedLadderSources: on a window policy the ladders of ε and
// every metric with an extrema form come from the incremental engine and
// only the others walk the snapshot lattice (stream's
// TestEpsilonSubsetsMatchesCore pins which), yet the report equals
// Auditor.Run over the same counts in everything but ladder_source.
func TestAuditMixedLadderSources(t *testing.T) {
	mon := skewedTumblingMonitor(t)
	opts := []Option{WithMetrics("subgroup", "worst_gap"), WithBootstrap(40, 0.9), WithCredible(40, 1, 0.9), WithSeed(5)}
	rep, err := mon.Audit(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LadderSource != LadderSourceIncremental {
		t.Fatalf("ladder_source = %q, want %q", rep.LadderSource, LadderSourceIncremental)
	}
	requireRunBytes(t, mon, rep, opts)
}

// requireRunBytes fails unless rep renders byte for byte like
// Auditor.Run over the monitor's current snapshot, under the monitor's
// alpha and opts, with rep's ladder_source.
func requireRunBytes(t *testing.T, mon *Monitor, rep *Report, opts []Option) {
	t.Helper()
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
