package fairness_test

import (
	"context"
	"math"
	"sync"
	"testing"

	fairness "repro"
)

func monitorSpace(t *testing.T) *fairness.Space {
	t.Helper()
	return fairness.MustSpace(
		fairness.Attr{Name: "gender", Values: []string{"M", "F"}},
		fairness.Attr{Name: "race", Values: []string{"A", "B"}},
	)
}

// TestMonitorConstructorsRejectBadAlpha: every constructor rejects the
// alphas WithAlpha rejects. A NaN alpha used to build a monitor whose
// Epsilon silently reported the empirical estimate, and +Inf one whose
// Watch never alerted.
func TestMonitorConstructorsRejectBadAlpha(t *testing.T) {
	space := monitorSpace(t)
	outs := []string{"deny", "approve"}
	constructors := []struct {
		name string
		make func(alpha float64) (*fairness.Monitor, error)
	}{
		{"NewMonitor", func(a float64) (*fairness.Monitor, error) { return fairness.NewMonitor(space, outs, 100, a) }},
		{"NewTumblingMonitor", func(a float64) (*fairness.Monitor, error) { return fairness.NewTumblingMonitor(space, outs, 64, a) }},
		{"NewSlidingMonitor", func(a float64) (*fairness.Monitor, error) { return fairness.NewSlidingMonitor(space, outs, 64, 4, a) }},
	}
	for _, c := range constructors {
		for _, alpha := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := c.make(alpha); err == nil {
				t.Errorf("%s accepted alpha %v", c.name, alpha)
			}
		}
		for _, alpha := range []float64{0, 0.5} {
			if _, err := c.make(alpha); err != nil {
				t.Errorf("%s rejected alpha %v: %v", c.name, alpha, err)
			}
		}
	}
}

// TestMonitorConcurrentObserve: the public Monitor must accept
// concurrent writers and report exact window totals once they finish.
func TestMonitorConcurrentObserve(t *testing.T) {
	space := monitorSpace(t)
	m, err := fairness.NewTumblingMonitor(space, []string{"deny", "approve"}, 1<<40, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			groups := make([]int, 50)
			ys := make([]int, 50)
			for i := 0; i < perWorker/50; i++ {
				for j := range groups {
					groups[j] = (w + j) % 4
					ys[j] = j % 2
				}
				if err := m.ObserveBatch(groups, ys); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Seen() != workers*perWorker {
		t.Fatalf("seen %d, want %d", m.Seen(), workers*perWorker)
	}
	if got := m.EffectiveCount(); got != workers*perWorker {
		t.Fatalf("effective count %v, want %d", got, workers*perWorker)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Total() != workers*perWorker {
		t.Fatalf("snapshot total %v", snap.Total())
	}
}

// TestMonitorObserveValues: value-name ergonomics through the public
// surface.
func TestMonitorObserveValues(t *testing.T) {
	space := monitorSpace(t)
	m, err := fairness.NewMonitor(space, []string{"deny", "approve"}, 1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := m.ObserveValues([]string{"F", "B"}, "approve"); err != nil {
			t.Fatal(err)
		}
		if err := m.ObserveValues([]string{"M", "A"}, "deny"); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ObserveValues([]string{"F", "B"}, "bogus"); err == nil {
		t.Error("unknown outcome accepted")
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := space.IndexOfValues("F", "B")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.N(fb, 1); math.Abs(got-10) > 1e-6 {
		t.Fatalf("N(F∧B, approve) = %v, want ~10", got)
	}
}

// TestWindowMonitorAuditBootstrap: tumbling/sliding windows hold
// integral counts, so the bootstrap applies to their Audit snapshots
// (unlike exponential decay).
func TestWindowMonitorAuditBootstrap(t *testing.T) {
	space := monitorSpace(t)
	m, err := fairness.NewSlidingMonitor(space, []string{"deny", "approve"}, 4096, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]int, 400)
	ys := make([]int, 400)
	for i := range groups {
		groups[i] = i % 4
		ys[i] = (i / 4) % 2
		if groups[i] == 3 {
			ys[i] = 0 // group 3 always denied: visible disparity
		}
	}
	if err := m.ObserveBatch(groups, ys); err != nil {
		t.Fatal(err)
	}
	report, err := m.Audit(context.Background(), fairness.WithBootstrap(50, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if report.Bootstrap == nil {
		t.Fatal("bootstrap section missing from window-monitor audit")
	}
	if report.Observations != 400 {
		t.Fatalf("observations %v, want 400", report.Observations)
	}
}

// TestWatchObserveBatchChecked: batch alerting through the public
// surface fires on a biased stream.
func TestWatchObserveBatchChecked(t *testing.T) {
	space := fairness.MustSpace(fairness.Attr{Name: "g", Values: []string{"a", "b"}})
	m, err := fairness.NewMonitor(space, []string{"no", "yes"}, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fairness.NewWatch(m, 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]int, 100)
	ys := make([]int, 100)
	for i := range groups {
		groups[i] = i % 2
		ys[i] = 0
		if groups[i] == 0 && i%4 != 2 {
			ys[i] = 1 // group a approved 75%, group b never
		}
	}
	var alert *fairness.Alert
	var effective float64
	for i := 0; i < 30 && alert == nil; i++ {
		var err error
		alert, effective, err = w.ObserveBatchChecked(groups, ys)
		if err != nil {
			t.Fatal(err)
		}
	}
	if effective <= 100 {
		t.Fatalf("effective mass %v not reported by the batch check", effective)
	}
	if alert == nil {
		t.Fatal("no alert on a heavily biased stream")
	}
	if alert.Epsilon <= alert.Threshold {
		t.Fatalf("alert eps %v below threshold %v", alert.Epsilon, alert.Threshold)
	}
}
