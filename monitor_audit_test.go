package fairness_test

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"testing"

	fairness "repro"
	"repro/internal/loadgen"
)

// auditSpace is the 2×5×4×2×2 protected space of the repository's audit
// benchmark: 160 groups, 31 attribute subsets.
func auditSpace() *fairness.Space {
	var attrs []fairness.Attr
	for _, a := range []struct {
		name string
		k    int
	}{{"gender", 2}, {"race", 5}, {"age", 4}, {"nationality", 2}, {"disability", 2}} {
		values := make([]string, a.k)
		for i := range values {
			values[i] = "v" + strconv.Itoa(i)
		}
		attrs = append(attrs, fairness.Attr{Name: a.name, Values: values})
	}
	return fairness.MustSpace(attrs...)
}

// auditMonitor is a tumbling monitor over auditSpace (α = 1, a window
// no run fills) warmed with one warmup-decision batch synthesized by
// internal/loadgen, together with a synthesizer of further batches of
// the given size. Decisions follow loadgen's zipf population skew and
// per-group rate ramp, as the repository benchmark's are.
func auditMonitor(tb testing.TB, warmup, batch int, seed uint64) (*fairness.Monitor, *loadgen.Synth) {
	tb.Helper()
	space := auditSpace()
	mon, err := fairness.NewTumblingMonitor(space, []string{"y0", "y1"}, 1<<30, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := loadgen.WorkloadConfig{
		Space: space, Outcomes: 2, Monitors: 1, GroupSkew: 0.5,
		BatchSize: warmup, Mix: loadgen.Mix{Observe: 1},
		BaseRate: 0.2, RateSpread: 0.5, Seed: seed,
	}
	warm, err := loadgen.NewSynth(cfg, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var req loadgen.Request
	warm.Next(&req)
	if err := mon.ObserveBatch(req.Groups, req.Outcomes); err != nil {
		tb.Fatal(err)
	}
	cfg.BatchSize = batch
	feed, err := loadgen.NewSynth(cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return mon, feed
}

// TestMonitorAuditOneState: a monitor report is computed from one state
// even while a writer ingests concurrently. In every report the
// full-intersection row of the ε ladder carries the headline ε and
// witness, and each metric section's full row carries the section's
// value and witness. Run it under -race.
func TestMonitorAuditOneState(t *testing.T) {
	mon, feed := auditMonitor(t, 4096, 64, 17)
	full := mon.Space().NumAttrs()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var req loadgen.Request
		for {
			select {
			case <-stop:
				return
			default:
			}
			feed.Next(&req)
			if err := mon.ObserveBatch(req.Groups, req.Outcomes); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	keys := []string{"worst_gap", "worst_ratio", "alpha_if", "demographic_parity"}
	for i := 0; i < 300; i++ {
		rep, err := mon.Audit(context.Background(), fairness.WithMetrics(keys...))
		if err != nil {
			t.Fatal(err)
		}
		if rep.LadderSource != fairness.LadderSourceIncremental {
			t.Fatalf("report %d: ladder_source %q, want %q", i, rep.LadderSource, fairness.LadderSourceIncremental)
		}
		row := slices.IndexFunc(rep.Ladder, func(r fairness.LadderRow) bool { return len(r.Attrs) == full })
		if row < 0 {
			t.Fatalf("report %d: no full-intersection ladder row", i)
		}
		if got := rep.Ladder[row]; got.Epsilon != rep.Epsilon || got.Witness != rep.Witness {
			t.Fatalf("report %d: full ladder row ε %v witness %+v, headline ε %v witness %+v",
				i, got.Epsilon, got.Witness, rep.Epsilon, rep.Witness)
		}
		for _, mr := range rep.Metrics {
			row := slices.IndexFunc(mr.Ladder, func(r fairness.MetricLadderRow) bool { return len(r.Attrs) == full })
			if row < 0 {
				t.Fatalf("report %d: %s has no full-intersection ladder row", i, mr.Key)
			}
			if got := mr.Ladder[row]; got.Value != mr.Value || got.Witness != mr.Witness {
				t.Fatalf("report %d: %s full ladder row %v witness %+v, section value %v witness %+v",
					i, mr.Key, got.Value, got.Witness, mr.Value, mr.Witness)
			}
		}
	}
}
