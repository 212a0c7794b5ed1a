package fairness_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	fairness "repro"
	"repro/internal/core"
	"repro/internal/fairmetrics"
	"repro/internal/loadgen"
)

// These tests pin Monitor.Audit's interval memo: a report reuses the
// bootstrap and credible sections of the monitor's previous report only
// when every input of the draws is unchanged, and a report served from
// the memo is byte-identical to one that draws. Hits are counted through
// fairness.IntervalMemoHits (export_test.go).

// memoOptions requests both interval engines and two metric sections,
// with draw counts small enough for -race; extra options override them.
func memoOptions(extra ...fairness.Option) []fairness.Option {
	return append([]fairness.Option{
		fairness.WithMetrics("worst_gap", "alpha_if"),
		fairness.WithBootstrap(30, 0.9),
		fairness.WithCredible(30, 1, 0.9),
		fairness.WithSeed(3),
	}, extra...)
}

// reportJSON audits mon under opts and renders the report.
func reportJSON(t *testing.T, mon *fairness.Monitor, opts []fairness.Option) []byte {
	t.Helper()
	rep, err := mon.Audit(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func requireHits(t *testing.T, mon *fairness.Monitor, want int) {
	t.Helper()
	if got := fairness.IntervalMemoHits(mon); got != want {
		t.Fatalf("memo hits = %d, want %d", got, want)
	}
}

func requireSameReport(t *testing.T, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("reports differ:\n%s\nvs\n%s", got, want)
	}
}

// freshReport is the report of a new monitor from build restored to
// mon's state: every interval drawn from scratch.
func freshReport(t *testing.T, mon *fairness.Monitor, build func() *fairness.Monitor, opts []fairness.Option) []byte {
	t.Helper()
	var state bytes.Buffer
	if err := mon.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	clone := build()
	if err := clone.ReadState(&state); err != nil {
		t.Fatal(err)
	}
	return reportJSON(t, clone, opts)
}

// memoFeed returns a function that observes `batches` further
// 100-decision batches of one seeded loadgen stream into a monitor.
func memoFeed(t *testing.T, space *fairness.Space) func(mon *fairness.Monitor, batches int) {
	t.Helper()
	synth, err := loadgen.NewSynth(loadgen.WorkloadConfig{
		Space: space, Outcomes: 2, Monitors: 1, GroupSkew: 0.5,
		BatchSize: 100, Mix: loadgen.Mix{Observe: 1},
		BaseRate: 0.2, RateSpread: 0.5, Seed: 11,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return func(mon *fairness.Monitor, batches int) {
		t.Helper()
		var req loadgen.Request
		for i := 0; i < batches; i++ {
			synth.Next(&req)
			if err := mon.ObserveBatch(req.Groups, req.Outcomes); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// monitorBuilder returns a constructor of identical empty monitors.
func monitorBuilder(t *testing.T, newMonitor func(*fairness.Space, []string) (*fairness.Monitor, error)) func() *fairness.Monitor {
	space := monitorSpace(t)
	return func() *fairness.Monitor {
		mon, err := newMonitor(space, []string{"deny", "approve"})
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
}

func tumbling(window int) func(*fairness.Space, []string) (*fairness.Monitor, error) {
	return func(s *fairness.Space, o []string) (*fairness.Monitor, error) {
		return fairness.NewTumblingMonitor(s, o, window, 1)
	}
}

// TestMonitorMemoHitIsByteIdentical: a second report on an unchanged
// monitor reuses the first one's intervals and renders the same bytes,
// also under another worker count, which no draw depends on.
func TestMonitorMemoHitIsByteIdentical(t *testing.T) {
	build := monitorBuilder(t, tumbling(1<<20))
	mon := build()
	memoFeed(t, mon.Space())(mon, 4)
	first := reportJSON(t, mon, memoOptions())
	requireHits(t, mon, 0)
	requireSameReport(t, reportJSON(t, mon, memoOptions()), first)
	requireHits(t, mon, 1)
	requireSameReport(t, reportJSON(t, mon, memoOptions(fairness.WithWorkers(1))), first)
	requireHits(t, mon, 2)
	requireSameReport(t, freshReport(t, mon, build, memoOptions()), first)
}

// TestMonitorMemoMissesAfterStateChanges: an observe, a tumbling-window
// rollover, a sliding-bucket eviction and a ReadState restore each change
// the audited cells, so the next report draws again, and it equals the
// report of a fresh monitor in the same state.
func TestMonitorMemoMissesAfterStateChanges(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *fairness.Monitor
		// batches is how many 100-decision batches the change observes.
		batches int
	}{
		{"observe", monitorBuilder(t, tumbling(1<<20)), 1},
		// The first four batches fill a 400-decision window; the next
		// four replace it with the following window.
		{"tumbling rollover", monitorBuilder(t, tumbling(400)), 4},
		// A fifth batch evicts the oldest of four 100-decision buckets.
		{"sliding eviction", monitorBuilder(t, func(s *fairness.Space, o []string) (*fairness.Monitor, error) {
			return fairness.NewSlidingMonitor(s, o, 400, 4, 1)
		}), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mon := tc.build()
			feed := memoFeed(t, mon.Space())
			feed(mon, 4)
			before := reportJSON(t, mon, memoOptions())
			requireSameReport(t, reportJSON(t, mon, memoOptions()), before)
			requireHits(t, mon, 1)

			feed(mon, tc.batches)
			after := reportJSON(t, mon, memoOptions())
			requireHits(t, mon, 1)
			if bytes.Equal(after, before) {
				t.Fatal("the change left the report unchanged")
			}
			requireSameReport(t, after, freshReport(t, mon, tc.build, memoOptions()))
			requireSameReport(t, reportJSON(t, mon, memoOptions()), after)
			requireHits(t, mon, 2)
		})
	}

	t.Run("ReadState restore", func(t *testing.T) {
		build := monitorBuilder(t, tumbling(1<<20))
		orig := build()
		memoFeed(t, orig.Space())(orig, 4)
		want := reportJSON(t, orig, memoOptions())

		restored := build()
		if _, err := restored.Audit(context.Background(), memoOptions()...); !errors.Is(err, fairness.ErrDegenerateSupport) {
			t.Fatalf("cold report: err = %v, want ErrDegenerateSupport", err)
		}
		var state bytes.Buffer
		if err := orig.WriteState(&state); err != nil {
			t.Fatal(err)
		}
		if err := restored.ReadState(&state); err != nil {
			t.Fatal(err)
		}
		requireSameReport(t, reportJSON(t, restored, memoOptions()), want)
		requireHits(t, restored, 0)
		requireSameReport(t, reportJSON(t, restored, memoOptions()), want)
		requireHits(t, restored, 1)
	})
}

// TestMonitorMemoKey: changing any draw input — the seed, a level, the
// prior, a replicate or sample count, the estimator alpha, the engines
// requested or a metric's value — misses, and the report equals a fresh
// monitor's. Metric keys alone collide: AlphaIntersectional{Alpha: 0.3}
// has the registry alpha_if's key, "alpha_if", so switching between the
// two must miss.
func TestMonitorMemoKey(t *testing.T) {
	build := monitorBuilder(t, tumbling(1<<20))
	mon := build()
	memoFeed(t, mon.Space())(mon, 4)
	base := memoOptions()
	customAlpha := []fairness.Option{
		fairness.WithMetrics("worst_gap"),
		fairness.WithMetric(fairmetrics.AlphaIntersectional{Alpha: 0.3}),
		fairness.WithBootstrap(30, 0.9),
		fairness.WithCredible(30, 1, 0.9),
		fairness.WithSeed(3),
	}
	for _, tc := range []struct {
		name string
		opts []fairness.Option
	}{
		{"seed", memoOptions(fairness.WithSeed(4))},
		{"bootstrap level", memoOptions(fairness.WithBootstrap(30, 0.8))},
		{"bootstrap replicates", memoOptions(fairness.WithBootstrap(31, 0.9))},
		{"credible level", memoOptions(fairness.WithCredible(30, 1, 0.8))},
		{"prior", memoOptions(fairness.WithCredible(30, 2, 0.9))},
		{"credible samples", memoOptions(fairness.WithCredible(31, 1, 0.9))},
		{"estimator alpha", memoOptions(fairness.WithAlpha(0.5))},
		{"credible only", []fairness.Option{
			fairness.WithMetrics("worst_gap", "alpha_if"),
			fairness.WithCredible(30, 1, 0.9),
			fairness.WithSeed(3),
		}},
		{"metric value", customAlpha},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reportJSON(t, mon, base)
			hits := fairness.IntervalMemoHits(mon)
			got := reportJSON(t, mon, tc.opts)
			requireHits(t, mon, hits)
			requireSameReport(t, got, freshReport(t, mon, build, tc.opts))
			requireSameReport(t, reportJSON(t, mon, tc.opts), got)
			requireHits(t, mon, hits+1)
			reportJSON(t, mon, base)
			requireHits(t, mon, hits+1)
		})
	}
}

// cancelingMetric scores worst_gap and cancels a context each time it
// is evaluated, so a report that computes it is canceled mid-run. It
// has no extrema form, so every table a report scores calls Eval, and a
// pointer to it is comparable, so its reports are memoized.
type cancelingMetric struct{ cancel context.CancelFunc }

func (m *cancelingMetric) Key() string         { return "canceling_gap" }
func (m *cancelingMetric) Describe() string    { return "worst_gap that cancels its report" }
func (m *cancelingMetric) HigherIsWorse() bool { return true }
func (m *cancelingMetric) WorstValue() float64 { return fairmetrics.WorstGap{}.WorstValue() }
func (m *cancelingMetric) Applicable(s *core.Space, outcomes []string) error {
	return fairmetrics.WorstGap{}.Applicable(s, outcomes)
}
func (m *cancelingMetric) Eval(c *core.CPT) (core.MetricResult, error) {
	m.cancel()
	return fairmetrics.WorstGap{}.Eval(c)
}

// sliceMetric is worst_gap carrying a slice, so == cannot compare two
// of its values.
type sliceMetric struct{ tags []string }

func (sliceMetric) Key() string         { return "slice_gap" }
func (sliceMetric) Describe() string    { return "worst_gap with a slice field" }
func (sliceMetric) HigherIsWorse() bool { return true }
func (sliceMetric) WorstValue() float64 { return fairmetrics.WorstGap{}.WorstValue() }
func (sliceMetric) Applicable(s *core.Space, outcomes []string) error {
	return fairmetrics.WorstGap{}.Applicable(s, outcomes)
}
func (sliceMetric) Eval(c *core.CPT) (core.MetricResult, error) {
	return fairmetrics.WorstGap{}.Eval(c)
}

// TestMonitorMemoSkipsIncomparableMetrics: a report with a metric whose
// type == cannot compare neither panics nor reuses intervals.
func TestMonitorMemoSkipsIncomparableMetrics(t *testing.T) {
	mon := monitorBuilder(t, tumbling(1<<20))()
	memoFeed(t, mon.Space())(mon, 4)
	opts := []fairness.Option{fairness.WithMetric(sliceMetric{tags: []string{"x"}}), fairness.WithCredible(30, 1, 0.9)}
	first := reportJSON(t, mon, opts)
	requireSameReport(t, reportJSON(t, mon, opts), first)
	requireHits(t, mon, 0)
}

// TestMonitorMemoStoresOnlySuccessfulRuns: a canceled report and a
// report whose engine fails store nothing, and neither evicts the entry
// a successful report stored.
func TestMonitorMemoStoresOnlySuccessfulRuns(t *testing.T) {
	t.Run("canceled", func(t *testing.T) {
		mon := monitorBuilder(t, tumbling(1<<20))()
		memoFeed(t, mon.Space())(mon, 4)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := []fairness.Option{
			fairness.WithMetric(&cancelingMetric{cancel: cancel}),
			fairness.WithBootstrap(30, 0.9),
			fairness.WithSeed(3),
		}
		if _, err := mon.Audit(ctx, opts...); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		// The metric now cancels a context that is already done.
		want := reportJSON(t, mon, opts)
		requireHits(t, mon, 0)
		requireSameReport(t, reportJSON(t, mon, opts), want)
		requireHits(t, mon, 1)
	})

	t.Run("failing engine", func(t *testing.T) {
		// An exponential monitor's counts are not integral, so its
		// bootstrap fails while its posterior draws; an idle one serves
		// the same credible-only report from the memo.
		build := monitorBuilder(t, func(s *fairness.Space, o []string) (*fairness.Monitor, error) {
			return fairness.NewMonitor(s, o, 500, 1)
		})
		mon := build()
		memoFeed(t, mon.Space())(mon, 4)
		credible := []fairness.Option{fairness.WithMetrics("worst_gap"), fairness.WithCredible(30, 1, 0.9), fairness.WithSeed(3)}
		both := append([]fairness.Option{fairness.WithBootstrap(30, 0.9)}, credible...)
		want := reportJSON(t, mon, credible)
		requireSameReport(t, want, freshReport(t, mon, build, credible))
		requireSameReport(t, reportJSON(t, mon, credible), want)
		requireHits(t, mon, 1)
		for i := 0; i < 2; i++ {
			if _, err := mon.Audit(context.Background(), both...); err == nil {
				t.Fatalf("report %d: bootstrap over decayed counts succeeded", i)
			}
		}
		requireHits(t, mon, 1)
		requireSameReport(t, reportJSON(t, mon, credible), want)
		requireHits(t, mon, 2)
	})
}

// TestMonitorMemoUnderConcurrentObserve: reports racing a writer never
// serve intervals drawn from other counts. One writer sends a fixed
// sequence of batches, each while a report runs, so every report audits
// the warm-up plus a prefix of that sequence; each report must equal a
// fresh monitor's report over that prefix. Run it under -race.
func TestMonitorMemoUnderConcurrentObserve(t *testing.T) {
	const warmup, batch, batches = 2048, 64, 24
	mon, feed := auditMonitor(t, warmup, batch, 23)
	type pair struct{ groups, outcomes []int }
	sent := make([]pair, batches)
	var req loadgen.Request
	for i := range sent {
		feed.Next(&req)
		sent[i] = pair{append([]int(nil), req.Groups...), append([]int(nil), req.Outcomes...)}
	}

	tick := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range sent {
			if _, ok := <-tick; !ok {
				return
			}
			if err := mon.ObserveBatch(p.groups, p.outcomes); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			close(tick)
			wg.Wait()
		}
	}
	defer stop()
	opts := memoOptions()
	var reports []*fairness.Report
	for i := 0; i < 2*batches; i++ {
		if i%2 == 0 {
			tick <- struct{}{} // the writer's next batch races this report
		}
		rep, err := mon.Audit(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	stop()
	t.Logf("%d of %d reports reused intervals", fairness.IntervalMemoHits(mon), len(reports))

	want := map[int][]byte{}
	for i, rep := range reports {
		k := (int(rep.Observations) - warmup) / batch
		if k < 0 || k > batches || warmup+k*batch != int(rep.Observations) {
			t.Fatalf("report %d audits %v decisions, not the warm-up plus whole batches", i, rep.Observations)
		}
		if want[k] == nil {
			fresh, _ := auditMonitor(t, warmup, batch, 23)
			for _, p := range sent[:k] {
				if err := fresh.ObserveBatch(p.groups, p.outcomes); err != nil {
					t.Fatal(err)
				}
			}
			want[k] = reportJSON(t, fresh, opts)
		}
		var got bytes.Buffer
		if err := rep.RenderJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want[k]) {
			t.Fatalf("report %d differs from a fresh monitor's report after %d batches", i, k)
		}
	}
}
