package stream

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
	"repro/internal/rng"
)

func twoGroupSpace(t *testing.T) *core.Space {
	t.Helper()
	return core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
}

// newMonitor is New with an Exponential policy of the given half-life.
func newMonitor(space *core.Space, outcomes []string, halfLife, alpha float64) (*Monitor, error) {
	return New(space, outcomes, Config{Policy: Exponential{HalfLife: halfLife}, Alpha: alpha})
}

func TestNewMonitorValidation(t *testing.T) {
	s := twoGroupSpace(t)
	if _, err := newMonitor(nil, []string{"x", "y"}, 100, 0); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := newMonitor(s, []string{"x"}, 100, 0); err == nil {
		t.Error("single outcome accepted")
	}
	for _, hl := range []float64{0, -1, math.Inf(1)} {
		if _, err := newMonitor(s, []string{"x", "y"}, hl, 0); err == nil {
			t.Errorf("half-life %v accepted", hl)
		}
	}
	// A NaN alpha would silently report the empirical estimate and an
	// infinite one would fail every check; both are rejected like a
	// negative one.
	for _, alpha := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := newMonitor(s, []string{"x", "y"}, 100, alpha); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
		if _, err := New(s, []string{"x", "y"}, Config{Policy: Tumbling{Window: 8}, Alpha: alpha}); err == nil {
			t.Errorf("alpha %v accepted by a tumbling monitor", alpha)
		}
	}
}

func TestObserveValidation(t *testing.T) {
	s := twoGroupSpace(t)
	m, _ := newMonitor(s, []string{"x", "y"}, 100, 0)
	if err := m.Observe(5, 0); err == nil {
		t.Error("bad group accepted")
	}
	if err := m.Observe(0, 5); err == nil {
		t.Error("bad outcome accepted")
	}
}

// TestStationaryMatchesBatch: with a long half-life relative to the
// stream, the decayed estimate approximates the batch empirical ε.
func TestStationaryMatchesBatch(t *testing.T) {
	s := twoGroupSpace(t)
	m, err := newMonitor(s, []string{"no", "yes"}, 1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := core.MustCounts(s, []string{"no", "yes"})
	r := rng.New(11)
	rates := []float64{0.6, 0.3}
	for i := 0; i < 20000; i++ {
		g := r.Intn(2)
		y := 0
		if r.Float64() < rates[g] {
			y = 1
		}
		if err := m.Observe(g, y); err != nil {
			t.Fatal(err)
		}
		batch.MustAdd(g, y, 1)
	}
	mEps, err := m.Epsilon()
	if err != nil {
		t.Fatal(err)
	}
	bEps := core.MustEpsilon(batch.Empirical())
	if math.Abs(mEps.Epsilon-bEps.Epsilon) > 1e-6 {
		t.Fatalf("decayed %v vs batch %v", mEps.Epsilon, bEps.Epsilon)
	}
}

// TestDriftDetection: after a fairness regression, the short-half-life
// estimate moves to the new regime much faster than a batch estimate
// would.
func TestDriftDetection(t *testing.T) {
	s := twoGroupSpace(t)
	m, err := newMonitor(s, []string{"no", "yes"}, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	emit := func(rates []float64, n int) {
		for i := 0; i < n; i++ {
			g := r.Intn(2)
			y := 0
			if r.Float64() < rates[g] {
				y = 1
			}
			if err := m.Observe(g, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Fair phase: both groups at 0.5 for a long time.
	emit([]float64{0.5, 0.5}, 20000)
	fair, err := m.Epsilon()
	if err != nil {
		t.Fatal(err)
	}
	if fair.Epsilon > 0.25 {
		t.Fatalf("fair-phase eps %v too high", fair.Epsilon)
	}
	// Regression: group b drops to 0.1.
	emit([]float64{0.5, 0.1}, 4000)
	after, err := m.Epsilon()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(0.5 / 0.1)
	if after.Epsilon < 0.6*want {
		t.Fatalf("drift not detected: eps %v, regime value %v", after.Epsilon, want)
	}
}

func TestEffectiveCountSaturates(t *testing.T) {
	s := twoGroupSpace(t)
	const halfLife = 100.0
	m, _ := newMonitor(s, []string{"no", "yes"}, halfLife, 0)
	for i := 0; i < 10000; i++ {
		if err := m.Observe(i%2, i%2); err != nil {
			t.Fatal(err)
		}
	}
	// Effective window is 1/(1-2^(-1/halfLife)) ≈ halfLife/ln2.
	want := 1 / (1 - math.Exp2(-1/halfLife))
	if got := m.EffectiveCount(); math.Abs(got-want) > 0.05*want {
		t.Fatalf("effective count %v, want about %v", got, want)
	}
	if m.Seen() != 10000 {
		t.Fatalf("seen %d", m.Seen())
	}
}

func TestRenormalizePreservesEstimate(t *testing.T) {
	s := twoGroupSpace(t)
	// A tiny half-life forces rapid weight growth and many
	// renormalizations.
	m, _ := newMonitor(s, []string{"no", "yes"}, 2, 0)
	r := rng.New(17)
	for i := 0; i < 200000; i++ {
		g := r.Intn(2)
		y := 0
		if r.Float64() < 0.5 {
			y = 1
		}
		if err := m.Observe(g, y); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if total := snap.Total(); math.IsInf(total, 0) || math.IsNaN(total) || total <= 0 {
		t.Fatalf("snapshot total %v after renormalizations", total)
	}
}

func TestWatchAlerts(t *testing.T) {
	s := twoGroupSpace(t)
	m, _ := newMonitor(s, []string{"no", "yes"}, 200, 1)
	w, err := NewWatch(m, 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(19)
	fired := false
	// Heavily biased stream: group 0 at 0.8, group 1 at 0.05.
	for i := 0; i < 3000 && !fired; i++ {
		g := r.Intn(2)
		rate := 0.8
		if g == 1 {
			rate = 0.05
		}
		y := 0
		if r.Float64() < rate {
			y = 1
		}
		alert, err := w.ObserveChecked(g, y)
		if err != nil {
			t.Fatal(err)
		}
		if alert != nil {
			fired = true
			if alert.Epsilon <= alert.Threshold {
				t.Fatalf("alert with eps %v below threshold %v", alert.Epsilon, alert.Threshold)
			}
			if alert.SeenAt <= 0 {
				t.Fatal("alert missing position")
			}
		}
	}
	if !fired {
		t.Fatal("no alert on a heavily biased stream")
	}
}

func TestWatchRespectsMinEffective(t *testing.T) {
	s := twoGroupSpace(t)
	m, _ := newMonitor(s, []string{"no", "yes"}, 200, 1)
	w, _ := NewWatch(m, 0.01, 1e6) // unreachable mass
	r := rng.New(23)
	for i := 0; i < 1000; i++ {
		g := r.Intn(2)
		alert, err := w.ObserveChecked(g, g) // perfectly revealing stream
		if err != nil {
			t.Fatal(err)
		}
		if alert != nil {
			t.Fatal("alert fired before minimum effective mass")
		}
	}
}

func TestNewWatchValidation(t *testing.T) {
	s := twoGroupSpace(t)
	m, _ := newMonitor(s, []string{"no", "yes"}, 100, 0)
	if _, err := NewWatch(nil, 1, 0); err == nil {
		t.Error("nil monitor accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	gap := fairmetrics.WorstGap{}
	for _, tc := range []struct {
		name         string
		threshold    float64
		minEffective float64
		metrics      []MetricThreshold
		wantErr      string // substring; empty means accepted
	}{
		{"zero threshold without metrics", 0, 0, nil, "threshold"},
		{"NaN threshold", nan, 0, nil, "threshold"},
		{"negative minEffective", 1, -1, nil, "minEffective"},
		{"NaN minEffective", 1, nan, nil, "minEffective"},
		{"+Inf minEffective", 1, inf, nil, "minEffective"},
		{"NaN minEffective behind a metric", 0, nan, []MetricThreshold{{gap, 0.5}}, "minEffective"},
		{"NaN metric threshold", 0, 0, []MetricThreshold{{gap, nan}}, "worst_gap"},
		{"NaN second metric threshold", 1, 0, []MetricThreshold{{gap, 0.5}, {fairmetrics.WorstRatio{}, nan}}, "worst_ratio"},
		{"nil metric", 1, 0, []MetricThreshold{{nil, 0.5}}, "nil metric"},
		{"large finite minEffective", 1, 1e300, nil, ""},
		{"infinite metric threshold", 0, 0, []MetricThreshold{{gap, inf}}, ""},
		{"metric-only watch", 0, 10, []MetricThreshold{{gap, 0.5}}, ""},
	} {
		_, err := NewWatch(m, tc.threshold, tc.minEffective, tc.metrics...)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestEpsilonSteadyStateAllocFree: after the first report builds the
// reusable buffers, Epsilon must not allocate.
func TestEpsilonSteadyStateAllocFree(t *testing.T) {
	m, err := newMonitor(twoGroupSpace(t), []string{"x", "y"}, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := m.Observe(i%2, i%2); err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(i%2, 1-i%2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Epsilon(); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.Epsilon(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Epsilon allocates %v per report, want 0", allocs)
	}
}

// TestSnapshotIsCallerOwned: mutating a returned snapshot must not leak
// into the monitor's internal reporting buffers.
func TestSnapshotIsCallerOwned(t *testing.T) {
	m, err := newMonitor(twoGroupSpace(t), []string{"x", "y"}, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m.Observe(i%2, i%2)
		m.Observe(i%2, 1-i%2)
	}
	before, err := m.Epsilon()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Cells() {
		snap.Cells()[i] = 999
	}
	after, err := m.Epsilon()
	if err != nil {
		t.Fatal(err)
	}
	if before.Epsilon != after.Epsilon {
		t.Fatal("snapshot mutation leaked into the monitor")
	}
}

func TestObserveBatchValidation(t *testing.T) {
	s := twoGroupSpace(t)
	m, _ := newMonitor(s, []string{"x", "y"}, 100, 0)
	if err := m.ObserveBatch([]int{0, 1}, []int{0}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if err := m.ObserveBatch([]int{0, 9}, []int{0, 0}); err == nil {
		t.Error("bad group accepted")
	}
	if err := m.ObserveBatch([]int{0, 1}, []int{0, 9}); err == nil {
		t.Error("bad outcome accepted")
	}
	// A rejected batch must not have consumed tickets or mutated state.
	if m.Seen() != 0 {
		t.Fatalf("rejected batches consumed %d tickets", m.Seen())
	}
	if err := m.ObserveBatch(nil, nil); err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
	if err := m.ObserveBatch([]int{0, 1, 0}, []int{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if m.Seen() != 3 {
		t.Fatalf("seen %d after batch of 3", m.Seen())
	}

	// A checked batch fits any monitor of the shape it was checked
	// against, and no other; the zero value fits none.
	b, err := m.ValidateBatch([]int{1, 0}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := New(s, []string{"x", "y"}, Config{Policy: Tumbling{Window: 10}})
	if err := twin.ObserveValidated(b); err != nil || twin.Seen() != 2 {
		t.Fatalf("same-shape monitor: err %v, seen %d", err, twin.Seen())
	}
	wider, _ := newMonitor(s, []string{"x", "y", "z"}, 100, 0)
	if err := wider.ObserveValidated(b); err == nil || wider.Seen() != 0 {
		t.Errorf("batch checked against 2 outcomes ingested by a 3-outcome monitor: err %v", err)
	}
	if err := m.ObserveValidated(ValidBatch{}); err == nil {
		t.Error("zero ValidBatch ingested")
	}
}

func TestObserveValues(t *testing.T) {
	s := core.MustSpace(
		core.Attr{Name: "gender", Values: []string{"M", "F"}},
		core.Attr{Name: "race", Values: []string{"A", "B"}},
	)
	m, err := newMonitor(s, []string{"deny", "approve"}, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ObserveValues([]string{"F", "B"}, "approve"); err != nil {
		t.Fatal(err)
	}
	if err := m.ObserveValues([]string{"F"}, "approve"); err == nil {
		t.Error("short value list accepted")
	}
	if err := m.ObserveValues([]string{"F", "Q"}, "approve"); err == nil {
		t.Error("unknown value accepted")
	}
	if err := m.ObserveValues([]string{"F", "B"}, "maybe"); err == nil {
		t.Error("unknown outcome accepted")
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g := s.MustIndex(1, 1)
	if got := snap.N(g, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("N(F∧B, approve) = %v, want ~1", got)
	}
	if m.Seen() != 1 {
		t.Fatalf("seen %d (failed observes must not consume tickets)", m.Seen())
	}
}

// TestShardedMatchesLockedSequential: driven by one goroutine, the
// sharded exponential monitor is the sequential decay estimator — its
// snapshot matches the definition, cell (g, y) = Σ 2^(−(n−1−i)/h) over
// the observations i that landed in it, up to float merge tolerance,
// and so does ε.
func TestShardedMatchesLockedSequential(t *testing.T) {
	const halfLife, n = 200, 5000
	s := twoGroupSpace(t)
	outs := []string{"no", "yes"}
	sharded, err := New(s, outs, Config{Policy: Exponential{HalfLife: halfLife}, Alpha: 1, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.MustCounts(s, outs)
	r := rng.New(29)
	for i := 0; i < n; i++ {
		g, y := r.Intn(2), 0
		if r.Float64() < 0.4+0.3*float64(g) {
			y = 1
		}
		if err := sharded.Observe(g, y); err != nil {
			t.Fatal(err)
		}
		oracle.MustAdd(g, y, math.Exp2(-float64(n-1-i)/halfLife))
	}
	a, err := sharded.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < s.Size(); g++ {
		for y := 0; y < 2; y++ {
			av, bv := a.N(g, y), oracle.N(g, y)
			if math.Abs(av-bv) > 1e-9*(1+math.Abs(bv)) {
				t.Fatalf("cell (%d,%d): sharded %v vs definition %v", g, y, av, bv)
			}
		}
	}
	ae, err := sharded.Epsilon()
	if err != nil {
		t.Fatal(err)
	}
	smoothed, err := oracle.Smoothed(1, false)
	if err != nil {
		t.Fatal(err)
	}
	be := core.MustEpsilon(smoothed)
	if math.Abs(ae.Epsilon-be.Epsilon) > 1e-9 {
		t.Fatalf("eps: sharded %v vs definition %v", ae.Epsilon, be.Epsilon)
	}
}

// TestTumblingBoundary: golden sequence across a window boundary — the
// table must cover exactly the current window and reset at each
// boundary.
func TestTumblingBoundary(t *testing.T) {
	s := twoGroupSpace(t)
	m, err := New(s, []string{"no", "yes"}, Config{Policy: Tumbling{Window: 4}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	obs := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0, 1}, {1, 1}}
	snapAt := func(idx int) *core.Counts {
		t.Helper()
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatalf("snapshot after obs %d: %v", idx, err)
		}
		return snap
	}
	for i, o := range obs[:4] {
		if err := m.Observe(o[0], o[1]); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	// Window 1 complete: all four observations present.
	snap := snapAt(4)
	if snap.Total() != 4 || snap.N(0, 0) != 1 || snap.N(1, 1) != 1 {
		t.Fatalf("full first window: total %v", snap.Total())
	}
	// Observation 5 starts window 2: the table must hold only it.
	if err := m.Observe(obs[4][0], obs[4][1]); err != nil {
		t.Fatal(err)
	}
	snap = snapAt(5)
	if snap.Total() != 1 || snap.N(0, 1) != 1 {
		t.Fatalf("after boundary: total %v, N(0,1) %v", snap.Total(), snap.N(0, 1))
	}
	if got := m.EffectiveCount(); got != 1 {
		t.Fatalf("effective count %v, want 1", got)
	}
	if err := m.Observe(obs[5][0], obs[5][1]); err != nil {
		t.Fatal(err)
	}
	snap = snapAt(6)
	if snap.Total() != 2 || snap.N(0, 1) != 1 || snap.N(1, 1) != 1 {
		t.Fatalf("mid second window: total %v", snap.Total())
	}
	if m.Seen() != 6 {
		t.Fatalf("seen %d", m.Seen())
	}
}

// TestSlidingEviction: golden sequence through bucket eviction — a
// window of 4 with 2 buckets drops observations two at a time.
func TestSlidingEviction(t *testing.T) {
	s := twoGroupSpace(t)
	m, err := New(s, []string{"no", "yes"}, Config{Policy: Sliding{Window: 4, Buckets: 2}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Tickets 1,2 -> bucket 0; 3,4 -> bucket 1; 5 -> bucket 2.
	seq := [][2]int{{0, 0}, {0, 0}, {1, 1}, {1, 1}, {0, 1}}
	for _, o := range seq[:4] {
		if err := m.Observe(o[0], o[1]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Total() != 4 {
		t.Fatalf("full window total %v", snap.Total())
	}
	// Observation 5 opens bucket 2: bucket 0 (observations 1-2) evicts.
	if err := m.Observe(seq[4][0], seq[4][1]); err != nil {
		t.Fatal(err)
	}
	snap, err = m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Total() != 3 {
		t.Fatalf("after eviction total %v, want 3", snap.Total())
	}
	if snap.N(0, 0) != 0 {
		t.Fatalf("evicted bucket still visible: N(0,0) = %v", snap.N(0, 0))
	}
	if snap.N(1, 1) != 2 || snap.N(0, 1) != 1 {
		t.Fatalf("window contents wrong: N(1,1)=%v N(0,1)=%v", snap.N(1, 1), snap.N(0, 1))
	}
}

func TestPolicyValidation(t *testing.T) {
	s := twoGroupSpace(t)
	outs := []string{"x", "y"}
	bad := []Config{
		{Policy: nil},
		{Policy: Exponential{HalfLife: 0}},
		{Policy: Exponential{HalfLife: math.Inf(1)}},
		{Policy: Tumbling{Window: 0}},
		{Policy: Sliding{Window: 4, Buckets: 1}},
		{Policy: Sliding{Window: 3, Buckets: 4}},
		{Policy: Sliding{Window: 5, Buckets: 2}},
		{Policy: Tumbling{Window: 4}, Alpha: -1},
		{Policy: Tumbling{Window: 4}, Shards: -1},
		{Policy: Tumbling{Window: 4}, Shards: 4096},
	}
	for i, cfg := range bad {
		if _, err := New(s, outs, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	for _, p := range []Policy{Exponential{HalfLife: 10}, Tumbling{Window: 8}, Sliding{Window: 8, Buckets: 4}} {
		if p.String() == "" {
			t.Errorf("policy %T has empty String()", p)
		}
		if _, err := New(s, outs, Config{Policy: p, Shards: 1}); err != nil {
			t.Errorf("valid policy %v rejected: %v", p, err)
		}
	}
}

// TestConcurrentWindowIngestExact: the acceptance-criterion test. With
// N goroutines observing through the sharded monitor, the final
// effective counts equal the single-goroutine result exactly (window
// sums are order-independent integer additions).
func TestConcurrentWindowIngestExact(t *testing.T) {
	s := core.MustSpace(
		core.Attr{Name: "a", Values: []string{"0", "1"}},
		core.Attr{Name: "b", Values: []string{"0", "1"}},
	)
	outs := []string{"no", "yes"}
	m, err := New(s, outs, Config{Policy: Tumbling{Window: 1 << 40}, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 4000
	const batch = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(100 + w))
			groups := make([]int, batch)
			ys := make([]int, batch)
			for i := 0; i < perWorker/batch; i++ {
				for j := range groups {
					groups[j] = r.Intn(4)
					ys[j] = r.Intn(2)
				}
				if err := m.ObserveBatch(groups, ys); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Replay the same multiset single-threaded into a plain table.
	want := core.MustCounts(s, outs)
	for w := 0; w < workers; w++ {
		r := rng.New(uint64(100 + w))
		for i := 0; i < perWorker; i++ {
			want.MustAdd(r.Intn(4), r.Intn(2), 1)
		}
	}
	got, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < s.Size(); g++ {
		for y := 0; y < 2; y++ {
			if got.N(g, y) != want.N(g, y) {
				t.Fatalf("cell (%d,%d): concurrent %v vs sequential %v", g, y, got.N(g, y), want.N(g, y))
			}
		}
	}
	if m.Seen() != workers*perWorker {
		t.Fatalf("seen %d, want %d", m.Seen(), workers*perWorker)
	}
	if got := m.EffectiveCount(); got != workers*perWorker {
		t.Fatalf("effective count %v, want %d", got, workers*perWorker)
	}
}

// TestConcurrentExponentialMass: under the exponential policy the total
// effective mass depends only on the observation count, so it must be
// exact under concurrency; readers polling mid-stream must never error.
func TestConcurrentExponentialMass(t *testing.T) {
	s := twoGroupSpace(t)
	const halfLife = 300.0
	m, err := New(s, []string{"no", "yes"}, Config{Policy: Exponential{HalfLife: halfLife}, Alpha: 1, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	const perWorker = 3000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Epsilon(); err != nil && !errors.Is(err, core.ErrDegenerateSupport) {
				t.Errorf("reader: %v", err)
				return
			}
			_ = m.EffectiveCount()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(500 + w))
			groups := make([]int, 25)
			ys := make([]int, 25)
			for i := 0; i < perWorker/25; i++ {
				for j := range groups {
					groups[j] = r.Intn(2)
					ys[j] = r.Intn(2)
				}
				if err := m.ObserveBatch(groups, ys); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	n := float64(workers * perWorker)
	d := math.Exp2(-1 / halfLife)
	want := (1 - math.Pow(d, n)) / (1 - d)
	if got := m.EffectiveCount(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("effective count %v, want %v", got, want)
	}
	if m.Seen() != workers*perWorker {
		t.Fatalf("seen %d", m.Seen())
	}
}

// TestExponentialBatchChunking: a batch far longer than the rebase bound
// for a tiny half-life must chunk internally and still produce a finite,
// saturated table.
func TestExponentialBatchChunking(t *testing.T) {
	s := twoGroupSpace(t)
	m, err := New(s, []string{"no", "yes"}, Config{Policy: Exponential{HalfLife: 2}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := 50000
	groups := make([]int, n)
	ys := make([]int, n)
	r := rng.New(77)
	for i := range groups {
		groups[i] = r.Intn(2)
		ys[i] = r.Intn(2)
	}
	if err := m.ObserveBatch(groups, ys); err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 - math.Exp2(-1.0/2))
	if got := m.EffectiveCount(); math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-want) > 0.05*want {
		t.Fatalf("effective count %v, want about %v", got, want)
	}
}

// TestWatchDegenerateSupportIsNotAnError: a stream that has populated
// only one group has no pairs to compare — ObserveChecked must treat the
// ErrDegenerateSupport sentinel as "no alert yet", not a failure, while
// Monitor.Epsilon still surfaces it for callers that ask directly.
func TestWatchDegenerateSupportIsNotAnError(t *testing.T) {
	s := twoGroupSpace(t)
	m, _ := newMonitor(s, []string{"no", "yes"}, 100, 0)
	w, err := NewWatch(m, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		alert, err := w.ObserveChecked(0, i%2) // only group 0 ever observed
		if err != nil {
			t.Fatalf("degenerate support surfaced as error: %v", err)
		}
		if alert != nil {
			t.Fatal("alert with a single populated group")
		}
	}
	if _, err := m.Epsilon(); !errors.Is(err, core.ErrDegenerateSupport) {
		t.Fatalf("Epsilon error %v does not wrap ErrDegenerateSupport", err)
	}
}
