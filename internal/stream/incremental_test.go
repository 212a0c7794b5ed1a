package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
	"repro/internal/rng"
)

// The incremental-ε property suite: the Watch's contract is that
// Check ≡ CheckFull bit for bit under every policy (the window policies
// check from the incremental engine, the exponential policy from the
// shard merge itself) and MetricSubsets ≡ core.MetricSubsetsCounts over
// a snapshot, across every estimator, shard count, ingest interleaving,
// log overflow, and a WriteState/ReadState round trip — with the ε
// threshold and with metric limits armed (limitSets).

func incTestSpace(t *testing.T) *core.Space {
	t.Helper()
	// Mixed arities so the subset projection arithmetic can't pass by
	// accident of uniform strides.
	return core.MustSpace(
		core.Attr{Name: "a", Values: []string{"0", "1"}},
		core.Attr{Name: "b", Values: []string{"x", "y", "z"}},
		core.Attr{Name: "c", Values: []string{"p", "q"}},
	)
}

// plainMetric hides a metric's extrema form (core.ExtremaMetric), so the
// Watch judges it like any custom metric: Eval on a CPT filled from the
// incremental aggregate.
type plainMetric struct{ core.Metric }

func (p plainMetric) Key() string { return "custom_" + p.Metric.Key() }

// watchLimits is one arming of a Watch: the ε threshold (0 disables it)
// and the metric limits in check order.
type watchLimits struct {
	name    string
	epsilon float64
	metrics []MetricThreshold
}

// limitSets arms the ε threshold alone, each of the six registry metrics
// alone behind a disabled ε check, a custom metric without the extrema
// form, and everything at once. Every limit sits inside the range the
// suite's streams sweep through, so alerts fire and clear.
func limitSets() []watchLimits {
	only := func(m core.Metric, limit float64) watchLimits {
		return watchLimits{m.Key(), 0, []MetricThreshold{{m, limit}}}
	}
	return []watchLimits{
		{"epsilon-threshold", 2, nil},
		only(core.DFEpsilon, 2),
		only(fairmetrics.WorstGap{}, 0.5),
		only(fairmetrics.WorstRatio{}, 0.1),
		only(fairmetrics.AlphaIntersectional{Alpha: 0.5}, 0.75),
		only(fairmetrics.DemographicParity{}, 0.55),
		only(fairmetrics.SubgroupParity{}, 0.03),
		only(plainMetric{fairmetrics.WorstGap{}}, 0.5),
		{"all", 3.5, []MetricThreshold{
			{fairmetrics.SubgroupParity{}, 0.05},
			{fairmetrics.WorstRatio{}, 0.03},
			{fairmetrics.AlphaIntersectional{Alpha: 0.5}, 0.85},
			{plainMetric{fairmetrics.AlphaIntersectional{Alpha: 0.5}}, 0.8},
			{fairmetrics.DemographicParity{}, 0.65},
			{fairmetrics.WorstGap{}, 0.6},
			{core.DFEpsilon, 2},
		}},
	}
}

// arm builds a Watch over m with these limits.
func (l watchLimits) arm(t *testing.T, m *Monitor, minEffective float64) *Watch {
	t.Helper()
	w, err := NewWatch(m, l.epsilon, minEffective, l.metrics...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// requireFired fails unless every limit set alerted at least once
// somewhere in the test, so no parity assertion passed vacuously.
func requireFired(t *testing.T, fired map[string]int) {
	t.Helper()
	for _, l := range limitSets() {
		if fired[l.name] == 0 {
			t.Errorf("limit set %q never alerted; its parity assertions exercised nothing", l.name)
		}
	}
}

// sameAlert compares two alerts bit-exactly, including which metric
// tripped.
func sameAlert(t *testing.T, ctx string, inc, full *Alert) {
	t.Helper()
	if (inc == nil) != (full == nil) {
		t.Fatalf("%s: alert mismatch: incremental %v, full %v", ctx, inc, full)
	}
	if inc == nil {
		return
	}
	if inc.Metric != full.Metric || math.Float64bits(inc.Epsilon) != math.Float64bits(full.Epsilon) ||
		inc.Witness != full.Witness || inc.SeenAt != full.SeenAt ||
		inc.Threshold != full.Threshold {
		t.Fatalf("%s: alert mismatch:\n  incremental %+v\n  full        %+v", ctx, inc, full)
	}
}

// checkBoth runs the incremental and full checks and asserts bit
// equality. Returns the incremental pair for callers that want to assert
// on the trajectory.
func checkBoth(t *testing.T, ctx string, w *Watch) (*Alert, float64) {
	t.Helper()
	ai, ei, erri := w.Check()
	af, ef, errf := w.CheckFull()
	if (erri == nil) != (errf == nil) {
		t.Fatalf("%s: error mismatch: incremental %v, full %v", ctx, erri, errf)
	}
	if math.Float64bits(ei) != math.Float64bits(ef) {
		t.Fatalf("%s: effective mass mismatch: incremental %v, full %v", ctx, ei, ef)
	}
	sameAlert(t, ctx, ai, af)
	return ai, ei
}

// drive feeds rounds of mixed ingest (checked/unchecked batches and
// single observations) with group-biased outcomes — group 0 never draws
// outcome 1, so the empirical estimator periodically hits ε = +Inf and
// evictions exercise support-loss transitions — comparing the
// incremental and full checks after every round. It returns the number
// of rounds that ended in an alert.
func drive(t *testing.T, w *Watch, r *rng.RNG, rounds int) int {
	t.Helper()
	fired := 0
	space := w.Space()
	for round := 0; round < rounds; round++ {
		n := 1 + r.Intn(96)
		groups := make([]int, n)
		outcomes := make([]int, n)
		for i := range groups {
			g := r.Intn(space.Size())
			y := 0
			if g != 0 && r.Float64() < 0.2+0.05*float64(g%7) {
				y = 1
			}
			groups[i], outcomes[i] = g, y
		}
		switch round % 4 {
		case 0:
			if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
				t.Fatal(err)
			}
		case 1:
			// Unchecked ingest: deltas pile up in the dirty logs until the
			// next check drains them all at once.
			if err := w.ObserveBatch(groups, outcomes); err != nil {
				t.Fatal(err)
			}
		case 2:
			for i := range groups {
				if _, err := w.ObserveChecked(groups[i], outcomes[i]); err != nil {
					t.Fatal(err)
				}
			}
		default:
			for i := range groups {
				if err := w.Observe(groups[i], outcomes[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if alert, _ := checkBoth(t, "round", w); alert != nil {
			fired++
		}
	}
	return fired
}

// TestIncrementalMatchesFullRecompute is the core cross-policy property:
// for every policy × estimator × shard count × limit set, Check agrees
// with the full recompute bit for bit after arbitrary interleavings of
// checked and unchecked ingest.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	space := incTestSpace(t)
	policies := []struct {
		name string
		pol  Policy
	}{
		{"exponential", Exponential{HalfLife: 64}},
		{"tumbling", Tumbling{Window: 512}},
		{"sliding", Sliding{Window: 1024, Buckets: 4}},
	}
	seed := uint64(100)
	fired := map[string]int{}
	for _, pc := range policies {
		for _, alpha := range []float64{0, 0.5} {
			for _, shards := range []int{1, 4} {
				seed++
				name := pc.name
				if alpha > 0 {
					name += "/smoothed"
				} else {
					name += "/empirical"
				}
				if shards == 1 {
					name += "/shards=1"
				} else {
					name += "/shards=4"
				}
				t.Run(name, func(t *testing.T) {
					for _, l := range limitSets() {
						t.Run(l.name, func(t *testing.T) {
							m, err := New(space, []string{"no", "yes"}, Config{Policy: pc.pol, Alpha: alpha, Shards: shards})
							if err != nil {
								t.Fatal(err)
							}
							fired[l.name] += drive(t, l.arm(t, m, 25), rng.New(seed), 60)
						})
					}
				})
			}
		}
	}
	requireFired(t, fired)
}

// TestIncrementalAlertParity drives a heavily biased stream through a
// low ε threshold and through every limit set, so alerts actually fire,
// and asserts the incremental and full checks agree on every alert's
// metric, value, witness and SeenAt. Every policy × limit set must
// alert at least once.
func TestIncrementalAlertParity(t *testing.T) {
	space := incTestSpace(t)
	sets := append([]watchLimits{{"epsilon-low", 0.05, nil}}, limitSets()...)
	for _, pc := range []struct {
		name string
		pol  Policy
	}{
		{"tumbling", Tumbling{Window: 256}},
		{"sliding", Sliding{Window: 512, Buckets: 4}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			for _, l := range sets {
				t.Run(l.name, func(t *testing.T) {
					m, err := New(space, []string{"no", "yes"}, Config{Policy: pc.pol, Alpha: 0.5, Shards: 2})
					if err != nil {
						t.Fatal(err)
					}
					w := l.arm(t, m, 10)
					r := rng.New(7)
					fired := 0
					for round := 0; round < 80; round++ {
						n := 1 + r.Intn(48)
						groups := make([]int, n)
						outcomes := make([]int, n)
						for i := range groups {
							g := r.Intn(space.Size())
							y := 0
							if r.Float64() < 0.1+0.7*float64(g)/float64(space.Size()) {
								y = 1
							}
							groups[i], outcomes[i] = g, y
						}
						if err := w.ObserveBatch(groups, outcomes); err != nil {
							t.Fatal(err)
						}
						if ai, _ := checkBoth(t, pc.name, w); ai != nil {
							fired++
						}
					}
					if fired == 0 {
						t.Fatal("no limit ever fired; the parity assertion exercised nothing")
					}
				})
			}
		})
	}
}

// TestIncrementalLogOverflowRebuilds shrinks the dirty logs far below
// the batch size, so every check finds overflowed logs and takes the
// rebuild-from-shard-state path; results must remain bit-identical.
func TestIncrementalLogOverflowRebuilds(t *testing.T) {
	space := incTestSpace(t)
	m, err := New(space, []string{"no", "yes"}, Config{Policy: Sliding{Window: 512, Buckets: 4}, Alpha: 0.5, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := overflowLimits().arm(t, m, 0)
	// Swap in a consumer whose logs hold only 8 entries.
	m.incMu.Lock()
	m.inc = newIncEngine(m, m.eng.(*winEngine), 8)
	m.eng.(*winEngine).enableDirty(8)
	m.incMu.Unlock()

	r := rng.New(21)
	overflowed := false
	fired := map[string]int{}
	for round := 0; round < 40; round++ {
		groups := make([]int, 64)
		outcomes := make([]int, 64)
		for i := range groups {
			groups[i] = r.Intn(space.Size())
			outcomes[i] = r.Intn(2)
		}
		if err := w.ObserveBatch(groups, outcomes); err != nil {
			t.Fatal(err)
		}
		// A 64-entry batch into 8-entry logs must overflow at least one.
		eng := m.eng.(*winEngine)
		for i := range eng.shards {
			eng.shards[i].mu.Lock()
			overflowed = overflowed || eng.shards[i].log.overflow
			eng.shards[i].mu.Unlock()
		}
		if a, _ := checkBoth(t, "overflow", w); a != nil {
			fired[a.Metric]++
		}
	}
	if !overflowed {
		t.Fatal("no log ever overflowed; the rebuild path exercised nothing")
	}
	if len(fired) < 2 {
		t.Fatalf("alerts came from %v; want at least two different limits exercised", fired)
	}
}

// overflowLimits arms every registry metric and a custom one behind the
// ε threshold, with limits the uniform random stream of
// TestIncrementalLogOverflowRebuilds crosses now and then.
func overflowLimits() watchLimits {
	return watchLimits{"overflow", 0.6, []MetricThreshold{
		{fairmetrics.SubgroupParity{}, 0.03},
		{fairmetrics.WorstRatio{}, 0.55},
		{fairmetrics.AlphaIntersectional{Alpha: 0.5}, 0.5},
		{plainMetric{fairmetrics.WorstGap{}}, 0.4},
		{fairmetrics.DemographicParity{}, 0.35},
		{fairmetrics.WorstGap{}, 0.3},
		{core.DFEpsilon, 0.5},
	}}
}

// ladderMetrics is every registry metric plus a custom metric without
// the extrema form: the incremental engine ladders the five with an
// extrema form and leaves subgroup and the custom one to the caller.
func ladderMetrics() []core.Metric {
	return []core.Metric{
		core.DFEpsilon,
		fairmetrics.WorstGap{},
		fairmetrics.WorstRatio{},
		fairmetrics.AlphaIntersectional{Alpha: 0.5},
		fairmetrics.SubgroupParity{},
		fairmetrics.DemographicParity{},
		plainMetric{fairmetrics.WorstRatio{}},
	}
}

// TestEpsilonSubsetsMatchesCore pins the incremental subset ladders
// against core.MetricSubsetsCounts over a simultaneous snapshot, for
// every metric with an extrema form: same order, same value bits, same
// witnesses, same marginal spaces — across shard counts, estimators, a
// log overflow on every sync, and repeated reports with evictions in
// between.
func TestEpsilonSubsetsMatchesCore(t *testing.T) {
	space := incTestSpace(t)
	for _, pc := range []struct {
		name string
		pol  Policy
	}{
		{"tumbling", Tumbling{Window: 4096}},
		{"sliding", Sliding{Window: 1024, Buckets: 4}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				for _, logCap := range []int{defaultDirtyLogCap, 8} {
					t.Run(fmt.Sprintf("shards=%d/log=%d", shards, logCap), func(t *testing.T) {
						for _, alpha := range []float64{0, 0.5, 1} {
							subsetsMatchCore(t, space, pc.pol, shards, logCap, alpha)
						}
					})
				}
			}
		})
	}
}

// subsetsMatchCore drives one monitor through twelve report rounds and
// compares its incremental ladders with the snapshot walk after each.
// A log capacity below the 200-decision batches overflows every drain,
// so each sync rebuilds the lattice from shard state.
func subsetsMatchCore(t *testing.T, space *core.Space, pol Policy, shards, logCap int, alpha float64) {
	t.Helper()
	m, err := New(space, []string{"no", "yes"}, Config{Policy: pol, Alpha: alpha, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if logCap != defaultDirtyLogCap {
		m.incMu.Lock()
		m.inc = newIncEngine(m, m.eng.(*winEngine), logCap)
		m.eng.(*winEngine).enableDirty(logCap)
		m.incMu.Unlock()
	}
	r := rng.New(55)
	overflowed := false
	for round := 0; round < 12; round++ {
		// Populate every group so no subset is degenerate, then add
		// random mass on top.
		for g := 0; g < space.Size(); g++ {
			for y := 0; y < 2; y++ {
				if err := m.Observe(g, y); err != nil {
					t.Fatal(err)
				}
			}
		}
		groups := make([]int, 200)
		outcomes := make([]int, 200)
		for i := range groups {
			groups[i] = r.Intn(space.Size())
			outcomes[i] = r.Intn(2)
		}
		if err := m.ObserveBatch(groups, outcomes); err != nil {
			t.Fatal(err)
		}
		eng := m.eng.(*winEngine)
		for i := range eng.shards {
			eng.shards[i].mu.Lock()
			overflowed = overflowed || eng.shards[i].log.overflow
			eng.shards[i].mu.Unlock()
		}
		matchSnapshot(t, m, alpha)
	}
	if logCap != defaultDirtyLogCap && !overflowed {
		t.Fatal("no log ever overflowed; the rebuild path exercised nothing")
	}
}

// matchSnapshot asserts, on a quiescent monitor, that MetricSubsets
// returns the merged snapshot's counts cell for cell, the snapshot
// walk's ladder for every metric with an extrema form, and no ladder for
// the others.
func matchSnapshot(t *testing.T, m *Monitor, alpha float64) {
	t.Helper()
	ms := ladderMetrics()
	counts, ladders, err := m.MetricSubsets(ms)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range snap.Cells() {
		if math.Float64bits(counts.Cells()[i]) != math.Float64bits(v) {
			t.Fatalf("cell %d: MetricSubsets counts %v, snapshot %v", i, counts.Cells()[i], v)
		}
	}
	matchWalk(t, ms, ladders, snap, alpha)
}

// matchWalk compares incremental ladders with core.MetricSubsetsCounts
// over counts: equal for every metric with an extrema form, nil for the
// others.
func matchWalk(t *testing.T, ms []core.Metric, ladders [][]core.SubsetMetric, counts *core.Counts, alpha float64) {
	t.Helper()
	want, err := core.MetricSubsetsCounts(ms, counts, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(ladders) != len(ms) {
		t.Fatalf("%d ladders for %d metrics", len(ladders), len(ms))
	}
	for j, m := range ms {
		if _, ok := m.(core.ExtremaMetric); !ok {
			if ladders[j] != nil {
				t.Fatalf("%s has no extrema form but got an incremental ladder", m.Key())
			}
			continue
		}
		compareLadders(t, m.Key(), ladders[j], want[j])
	}
}

func compareLadders(t *testing.T, key string, got, want []core.SubsetMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: ladder length %d, want %d", key, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: ladder[%d] subset %q, want %q", key, i, got[i].Key(), want[i].Key())
		}
		g, w := got[i].Result, want[i].Result
		if math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
			g.Witness != w.Witness || g.Finite != w.Finite {
			t.Fatalf("%s: ladder[%d] (%s):\n  incremental %+v\n  snapshot    %+v",
				key, i, got[i].Key(), g, w)
		}
		if got[i].Space.Size() != want[i].Space.Size() {
			t.Fatalf("%s: ladder[%d] (%s) space size %d, want %d",
				key, i, got[i].Key(), got[i].Space.Size(), want[i].Space.Size())
		}
	}
}

// TestEpsilonSubsetsExponentialUnavailable: the exponential policy has no
// incremental engine, so it must refuse the incremental ladder rather
// than return a wrong one, and so must a space past the attribute cap. Refusing happens before the
// incremental engine is attached: no engine, and no shard logs every
// later observe would have to record.
func TestEpsilonSubsetsExponentialUnavailable(t *testing.T) {
	attrs := make([]core.Attr, maxIncAttrs+1)
	for i := range attrs {
		attrs[i] = core.Attr{Name: fmt.Sprintf("a%d", i), Values: []string{"0", "1"}}
	}
	wide := core.MustSpace(attrs...)
	for _, tc := range []struct {
		name  string
		space *core.Space
		cfg   Config
	}{
		{"exponential", incTestSpace(t), Config{Policy: Exponential{HalfLife: 100}, Alpha: 1, Shards: 4}},
		{"17 attributes", wide, Config{Policy: Tumbling{Window: 64}, Alpha: 1, Shards: 1}},
	} {
		m, err := New(tc.space, []string{"no", "yes"}, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ObserveBatch([]int{0, 1, 1}, []int{1, 0, 1}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.MetricSubsets(ladderMetrics()); !errors.Is(err, ErrIncrementalUnavailable) {
			t.Fatalf("%s: MetricSubsets = %v, want ErrIncrementalUnavailable", tc.name, err)
		}
		if m.inc != nil {
			t.Errorf("%s: declining attached the incremental engine", tc.name)
		}
		if n := enabledLogs(m); n != 0 {
			t.Errorf("%s: declining enabled %d shard dirty logs", tc.name, n)
		}
	}
}

// enabledLogs counts the monitor's shards with a dirty-cell log attached;
// only the window engine has logs to attach.
func enabledLogs(m *Monitor) int {
	n := 0
	if e, ok := m.eng.(*winEngine); ok {
		for i := range e.shards {
			if e.shards[i].log.enabled() {
				n++
			}
		}
	}
	return n
}

// TestReadStateRebuildsIncremental proves the incremental state is fully
// derived: after a WriteState/ReadState round trip into a monitor whose
// watch (and thus incremental engine) was attached *before* the restore,
// identical further ingest yields bit-identical checks and ladders on
// both sides.
func TestReadStateRebuildsIncremental(t *testing.T) {
	space := incTestSpace(t)
	cfg := Config{Policy: Sliding{Window: 1024, Buckets: 4}, Alpha: 0.5, Shards: 4}
	limits := overflowLimits()
	m1, err := New(space, []string{"no", "yes"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w1 := limits.arm(t, m1, 0)
	r := rng.New(77)
	drive(t, w1, r, 20)
	if _, _, err := m1.MetricSubsets(ladderMetrics()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m1.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := New(space, []string{"no", "yes"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2 := limits.arm(t, m2, 0) // attach the incremental engine first
	if err := m2.ReadState(&buf); err != nil {
		t.Fatal(err)
	}

	// Same further ingest into both monitors, sequentially, so tickets
	// land identically; every check and ladder must agree bit-for-bit.
	for round := 0; round < 15; round++ {
		n := 1 + r.Intn(64)
		groups := make([]int, n)
		outcomes := make([]int, n)
		for i := range groups {
			groups[i] = r.Intn(space.Size())
			outcomes[i] = r.Intn(2)
		}
		for _, w := range []*Watch{w1, w2} {
			if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
				t.Fatal(err)
			}
		}
		a1, e1, err1 := w1.Check()
		a2, e2, err2 := w2.Check()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("restored check error mismatch: %v vs %v", err1, err2)
		}
		if math.Float64bits(e1) != math.Float64bits(e2) {
			t.Fatalf("restored effective mass mismatch: %v vs %v", e1, e2)
		}
		sameAlert(t, "restored", a1, a2)
		checkBoth(t, "restored-vs-full", w2)

		ms := ladderMetrics()
		c1, l1, err1 := m1.MetricSubsets(ms)
		c2, l2, err2 := m2.MetricSubsets(ms)
		if err1 != nil || err2 != nil {
			t.Fatalf("ladder errors: %v vs %v", err1, err2)
		}
		for i, v := range c1.Cells() {
			if math.Float64bits(c2.Cells()[i]) != math.Float64bits(v) {
				t.Fatalf("restored counts cell %d: %v vs %v", i, c2.Cells()[i], v)
			}
		}
		for j, m := range ms {
			if (l1[j] == nil) != (l2[j] == nil) {
				t.Fatalf("%s: ladder presence differs after restore", m.Key())
			}
			compareLadders(t, m.Key(), l2[j], l1[j])
		}
		matchSnapshot(t, m2, cfg.Alpha)
	}
}

// TestIncrementalConcurrent hammers the watch from parallel writers with
// interleaved checked ingest and ladder reads, then quiesces and asserts
// the incremental state still agrees with the authoritative recompute —
// the shard-log / rebuild race surface under -race.
func TestIncrementalConcurrent(t *testing.T) {
	space := incTestSpace(t)
	m, err := New(space, []string{"no", "yes"}, Config{Policy: Sliding{Window: 4096, Buckets: 4}, Alpha: 0.5, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatch(m, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for round := 0; round < 50; round++ {
				groups := make([]int, 32)
				outcomes := make([]int, 32)
				for i := range groups {
					groups[i] = r.Intn(space.Size())
					outcomes[i] = r.Intn(2)
				}
				if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(1000 + wi))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ms := ladderMetrics()
		for i := 0; i < 30; i++ {
			if _, _, err := w.Check(); err != nil {
				t.Error(err)
				return
			}
			// A cold ladder may legitimately find a subset with fewer than
			// two supported groups; anything else is a real failure.
			counts, ladders, err := m.MetricSubsets(ms)
			if errors.Is(err, core.ErrDegenerateSupport) {
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			// Counts and ladders come from one state even while the
			// writers run: the walk over the returned counts reproduces
			// every incremental ladder.
			want, err := core.MetricSubsetsCounts(ms, counts, 0.5)
			if err != nil {
				t.Error(err)
				return
			}
			for j, mt := range ms {
				if ladders[j] == nil {
					continue
				}
				for k := range ladders[j] {
					g, w := ladders[j][k].Result, want[j][k].Result
					if math.Float64bits(g.Value) != math.Float64bits(w.Value) || g.Witness != w.Witness {
						t.Errorf("%s subset %s: concurrent ladder %+v, walk over its counts %+v",
							mt.Key(), ladders[j][k].Key(), g, w)
						return
					}
				}
			}
		}
	}()
	wg.Wait()

	checkBoth(t, "quiesced", w)
	matchSnapshot(t, m, 0.5)
}

// TestMinEffectiveGateDefersRefresh pins the cold-start contract: a
// check below MinEffective pays only the log drain — the dirty-group set
// is left queued (no extremum maintenance, no estimator work) until the
// gate opens.
func TestMinEffectiveGateDefersRefresh(t *testing.T) {
	space := incTestSpace(t)
	m, err := New(space, []string{"no", "yes"}, Config{Policy: Sliding{Window: 1024, Buckets: 4}, Alpha: 0.5, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatch(m, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		alert, err := w.ObserveChecked(i%space.Size(), i%2)
		if err != nil {
			t.Fatal(err)
		}
		if alert != nil {
			t.Fatal("alert below MinEffective")
		}
	}
	inc := m.ensureInc()
	inc.mu.Lock()
	nDirty := inc.full.nDirty
	inc.mu.Unlock()
	if nDirty == 0 {
		t.Fatal("dirty-group set drained below MinEffective: the gate is not skipping estimator work")
	}
	w.MinEffective = 1
	checkBoth(t, "gate-open", w)
	inc.mu.Lock()
	nDirty = inc.full.nDirty
	inc.mu.Unlock()
	if nDirty != 0 {
		t.Fatalf("%d dirty groups left after an above-gate check", nDirty)
	}
}

// expWatch builds a watched exponential monitor over the incremental
// suite's space: half-life 50, α = 1, four shards, and an ε threshold
// that the biased stream of expBatch crosses now and then.
func expWatch(t *testing.T) *Watch {
	t.Helper()
	m, err := New(incTestSpace(t), []string{"no", "yes"}, Config{Policy: Exponential{HalfLife: 50}, Alpha: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatch(m, 0.9, 10)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// expBatch draws one batch of 1–64 decisions whose positive rate rises
// with the group index, so ε sits near expWatch's threshold.
func expBatch(r *rng.RNG, size int) (groups, outcomes []int) {
	n := 1 + r.Intn(64)
	groups = make([]int, n)
	outcomes = make([]int, n)
	for i := range groups {
		g := r.Intn(size)
		y := 0
		if r.Float64() < 0.2+0.5*float64(g)/float64(size) {
			y = 1
		}
		groups[i], outcomes[i] = g, y
	}
	return groups, outcomes
}

// TestExponentialWatchAttachesNoEngine: an exponential Watch checks from
// the shard merge, so building and running it attaches no incremental
// engine and leaves every shard unlogged.
func TestExponentialWatchAttachesNoEngine(t *testing.T) {
	w := expWatch(t)
	r := rng.New(3)
	for i := 0; i < 5; i++ {
		groups, outcomes := expBatch(r, w.Space().Size())
		if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Check(); err != nil {
		t.Fatal(err)
	}
	if w.inc != nil {
		t.Error("an exponential Watch attached the incremental engine")
	}
	if n := enabledLogs(w.Monitor); n != 0 {
		t.Errorf("an exponential Watch enabled %d shard dirty logs", n)
	}
}

// TestExponentialWatchMatchesMonitor: a watched exponential monitor gives
// one answer per state. After every checked batch, the checked effective
// mass equals EffectiveCount and an ε alert's value and witness equal
// Epsilon's, bit for bit.
func TestExponentialWatchMatchesMonitor(t *testing.T) {
	w := expWatch(t)
	r := rng.New(5)
	alerts := 0
	for i := 0; i < 60; i++ {
		groups, outcomes := expBatch(r, w.Space().Size())
		alert, effective, err := w.ObserveBatchChecked(groups, outcomes)
		if err != nil {
			t.Fatal(err)
		}
		if want := w.EffectiveCount(); math.Float64bits(effective) != math.Float64bits(want) {
			t.Fatalf("batch %d: checked effective mass %v, EffectiveCount %v", i, effective, want)
		}
		if alert == nil {
			continue
		}
		alerts++
		want, err := w.Epsilon()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(alert.Epsilon) != math.Float64bits(want.Epsilon) || alert.Witness != want.Witness {
			t.Fatalf("batch %d: alert ε %v (witness %+v), Epsilon %v (witness %+v)",
				i, alert.Epsilon, alert.Witness, want.Epsilon, want.Witness)
		}
	}
	if alerts == 0 {
		t.Fatal("no alert fired; the ε comparison exercised nothing")
	}
}

// TestExponentialWatchRepeatsAfterRestore: a watched exponential monitor
// restored from WriteState into a fresh watched monitor answers every
// later checked batch exactly as the original does.
func TestExponentialWatchRepeatsAfterRestore(t *testing.T) {
	w1 := expWatch(t)
	r := rng.New(9)
	size := w1.Space().Size()
	for i := 0; i < 20; i++ {
		groups, outcomes := expBatch(r, size)
		if _, _, err := w1.ObserveBatchChecked(groups, outcomes); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := w1.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	w2 := expWatch(t) // watched before the restore, as dfserve's recovery does
	if err := w2.ReadState(&buf); err != nil {
		t.Fatal(err)
	}
	alerts := 0
	for i := 0; i < 40; i++ {
		groups, outcomes := expBatch(r, size)
		a1, e1, err1 := w1.ObserveBatchChecked(groups, outcomes)
		a2, e2, err2 := w2.ObserveBatchChecked(groups, outcomes)
		if err1 != nil || err2 != nil {
			t.Fatalf("batch %d: errors %v, %v", i, err1, err2)
		}
		if math.Float64bits(e1) != math.Float64bits(e2) {
			t.Fatalf("batch %d: effective mass %v after restore, %v without", i, e2, e1)
		}
		sameAlert(t, fmt.Sprintf("batch %d after restore", i), a2, a1)
		if a1 != nil {
			alerts++
		}
	}
	if alerts == 0 {
		t.Fatal("no alert fired after the restore; the alert comparison exercised nothing")
	}
}
