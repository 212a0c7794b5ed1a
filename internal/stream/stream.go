// Package stream supports continuous fairness monitoring of deployed
// systems — the paper's "critiquing of deployed systems by scholars and
// activists" use case (Section 1) — at production ingest rates.
//
// The Monitor is a sharded concurrent contingency table: observations
// take a ticket from one global atomic counter and land in a per-shard
// strided count table under a per-shard lock, so concurrent observe
// streams scale with cores instead of serializing on one mutex.
// Snapshots merge the shards into a single core.Counts (merge-on-
// snapshot via Counts.AddScaled / Counts.Merge).
//
// Three window policies share the engine:
//
//   - Exponential{HalfLife}: every prior observation's influence decays
//     by 2^(-1/HalfLife) per new observation, so recent decisions
//     dominate the ε estimate and drift surfaces quickly.
//   - Tumbling{Window}: the table covers only the current fixed-size
//     window and resets at each window boundary.
//   - Sliding{Window, Buckets}: the table covers (approximately) the
//     most recent Window observations, evicted in Window/Buckets-sized
//     bucket increments.
//
// Reporting is two-speed for the window policies. Snapshots and one-off
// Epsilon calls merge the shards on demand; a window monitor's Watch
// threshold checks and MetricSubsets instead run on an incrementally-
// maintained aggregate (incremental.go) fed by per-shard dirty-cell
// logs, so a per-batch check costs O(cells touched since the last
// check) rather than O(shards × cells) — bit-identical to the full
// recompute, because window counts are integers. That holds for metric
// limits too: ε and the metrics with an extrema form
// (core.ExtremaMetric: epsilon, worst_gap, worst_ratio, alpha_if,
// demographic_parity) are judged from the aggregate's cached per-outcome
// rate extrema, and any other metric from a CPT filled from the
// aggregate in O(cells). An exponential monitor's checks merge the
// shards like its reports do, so every answer it gives, checked or not,
// comes from the one state WriteState captures.
//
// Concurrency semantics: counts for the window policies are plain sums,
// so after all writers finish, a snapshot is exactly the single-threaded
// result regardless of interleaving (up to float summation order). For
// the exponential policy the total effective mass depends only on the
// number of observations and is likewise exact; the per-cell split
// additionally depends on which ticket each observation drew, which
// concurrent ingestion makes nondeterministic within the reorder window
// of the racing goroutines (a few observations' worth of decay — far
// below estimation noise for any realistic half-life).
package stream

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Monitor maintains windowed outcome counts per intersectional group and
// reports ε on demand. It is safe for concurrent use: Observe and
// ObserveBatch may be called from any number of goroutines while other
// goroutines call Epsilon, Snapshot or EffectiveCount.
type Monitor struct {
	space        *core.Space
	outcomes     []string
	outcomeIndex map[string]int
	alpha        float64

	// policy and shards record the construction-time configuration so
	// state serialization (state.go) can verify a saved state matches
	// this monitor and rebuild the engine with the shard count the
	// state was captured under.
	policy Policy
	shards int

	// ticket orders observations globally: every admitted observation
	// draws one ticket, windows and decay are defined in ticket time,
	// and Seen() is the ticket high-water mark. ObserveBatch draws one
	// ticket range per batch, amortizing the shared-counter traffic.
	ticket atomic.Int64
	eng    engine

	// snap and cpt are reusable reporting buffers guarded by repMu, so
	// steady-state Epsilon calls allocate nothing. Ingestion never takes
	// repMu; only readers contend on it.
	repMu sync.Mutex
	snap  *core.Counts
	cpt   *core.CPT

	// inc is the lazily-attached incremental ε engine of a window
	// monitor (incremental.go): Watch checks and MetricSubsets drain
	// per-shard dirty-cell logs into a running aggregate instead of
	// re-merging every shard. It stays nil under the exponential policy.
	// incMu guards the attachment only; inc.mu guards its state (lock
	// order: incMu → inc.mu → shard mutexes).
	incMu sync.Mutex
	inc   *incEngine
}

// New creates a monitor with the given policy configuration.
func New(space *core.Space, outcomes []string, cfg Config) (*Monitor, error) {
	if space == nil {
		return nil, fmt.Errorf("stream: nil space")
	}
	if len(outcomes) < 2 {
		return nil, fmt.Errorf("stream: need at least two outcomes")
	}
	if !(cfg.Alpha >= 0) || math.IsInf(cfg.Alpha, 1) {
		return nil, fmt.Errorf("stream: alpha must be finite and >= 0, got %v", cfg.Alpha)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("stream: nil policy")
	}
	if err := cfg.Policy.validate(); err != nil {
		return nil, err
	}
	shards, err := resolveShards(cfg.Shards)
	if err != nil {
		return nil, err
	}
	snap, err := core.NewCounts(space, outcomes)
	if err != nil {
		return nil, err
	}
	cpt, err := core.NewCPT(space, outcomes)
	if err != nil {
		return nil, err
	}
	eng, err := cfg.Policy.newEngine(space, outcomes, shards)
	if err != nil {
		return nil, err
	}
	idx := make(map[string]int, len(outcomes))
	for i, o := range outcomes {
		idx[o] = i
	}
	return &Monitor{
		space:        space,
		outcomes:     append([]string(nil), outcomes...),
		outcomeIndex: idx,
		alpha:        cfg.Alpha,
		policy:       cfg.Policy,
		shards:       shards,
		eng:          eng,
		snap:         snap,
		cpt:          cpt,
	}, nil
}

// Space returns the protected-attribute space.
func (m *Monitor) Space() *core.Space { return m.space }

// Outcomes returns a copy of the outcome labels.
func (m *Monitor) Outcomes() []string { return append([]string(nil), m.outcomes...) }

// Observe records one decision. It is safe to call concurrently with
// other Observe/ObserveBatch calls and with readers.
func (m *Monitor) Observe(group, outcome int) error {
	if group < 0 || group >= m.space.Size() {
		return fmt.Errorf("stream: group %d out of range", group)
	}
	if outcome < 0 || outcome >= len(m.outcomes) {
		return fmt.Errorf("stream: outcome %d out of range", outcome)
	}
	m.eng.ingestOne(m.ticket.Add(1), group, outcome)
	return nil
}

// ObserveBatch records len(groups) decisions in one call: the hot
// ingest path. The whole batch draws a single ticket range (one shared
// atomic add) and lands in a single shard, amortizing the decay
// multiply and lock traffic across the batch. Indices are validated
// up front; an invalid element rejects the entire batch before any
// state changes. The success path performs no allocations (the dfvet
// hotpath analyzer and the BenchmarkHotPath 0 allocs/op gate both
// enforce this).
//
//df:hotpath
func (m *Monitor) ObserveBatch(groups, outcomes []int) error {
	if err := m.validateBatch(groups, outcomes); err != nil {
		return err
	}
	if len(groups) == 0 {
		return nil
	}
	n := int64(len(groups))
	t0 := m.ticket.Add(n) - n
	m.eng.ingest(t0, groups, outcomes)
	return nil
}

// validateBatch is ObserveBatch's cold prologue, kept out of the
// annotated hot function so its error formatting never costs the
// success path an allocation.
func (m *Monitor) validateBatch(groups, outcomes []int) error {
	if len(groups) != len(outcomes) {
		return fmt.Errorf("stream: ObserveBatch got %d groups vs %d outcomes", len(groups), len(outcomes))
	}
	size := m.space.Size()
	for i := range groups {
		if groups[i] < 0 || groups[i] >= size {
			return fmt.Errorf("stream: batch element %d: group %d out of range", i, groups[i])
		}
		if outcomes[i] < 0 || outcomes[i] >= len(m.outcomes) {
			return fmt.Errorf("stream: batch element %d: outcome %d out of range", i, outcomes[i])
		}
	}
	return nil
}

// ObserveValues records one decision by attribute value names (in
// attribute order) and outcome name, so callers don't hand-encode group
// indices: ObserveValues([]string{"F", "B"}, "deny").
func (m *Monitor) ObserveValues(values []string, outcome string) error {
	g, err := m.space.IndexOfValues(values...)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	y, ok := m.outcomeIndex[outcome]
	if !ok {
		return fmt.Errorf("stream: unknown outcome %q", outcome)
	}
	m.eng.ingestOne(m.ticket.Add(1), g, y)
	return nil
}

// Seen returns the number of observations so far.
func (m *Monitor) Seen() int { return int(m.ticket.Load()) }

// SnapshotInto overwrites dst with the current effective counts, merging
// every shard with one scaled add. Concurrent ingestion during the merge
// may land in shards already visited (a snapshot is a near-point-in-time
// view); once writers are quiescent the snapshot is exact.
func (m *Monitor) SnapshotInto(dst *core.Counts) error {
	if dst == nil {
		return fmt.Errorf("stream: nil snapshot destination")
	}
	return m.eng.snapshotInto(dst, m.ticket.Load())
}

// Snapshot returns the effective counts as a caller-owned core.Counts
// for arbitrary downstream analysis.
func (m *Monitor) Snapshot() (*core.Counts, error) {
	out, err := core.NewCounts(m.space, m.outcomes)
	if err != nil {
		return nil, err
	}
	if err := m.SnapshotInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// EffectiveCount returns the total effective mass: the number of
// observations in the current window for the windowed policies, and the
// decayed total (bounded above by 1/(1−2^(−1/halfLife))) for the
// exponential policy.
func (m *Monitor) EffectiveCount() float64 {
	m.repMu.Lock()
	defer m.repMu.Unlock()
	if err := m.eng.snapshotInto(m.snap, m.ticket.Load()); err != nil {
		return 0 // impossible: the buffer's shape matches by construction
	}
	return m.snap.Total()
}

// Epsilon reports the current ε estimate over the effective counts. It
// reuses internal snapshot and CPT buffers, so repeated reports do not
// allocate in the steady state. Concurrent Epsilon calls serialize on
// the reporting buffers; ingestion is never blocked by reporting.
func (m *Monitor) Epsilon() (core.EpsilonResult, error) {
	m.repMu.Lock()
	defer m.repMu.Unlock()
	if err := m.eng.snapshotInto(m.snap, m.ticket.Load()); err != nil {
		return core.EpsilonResult{}, err
	}
	if err := estimate(m.snap, m.cpt, m.alpha); err != nil {
		return core.EpsilonResult{}, err
	}
	return core.Epsilon(m.cpt)
}

// estimate converts counts to dst under the monitor estimator: Eq. 7
// smoothing when alpha > 0, the empirical Eq. 6 estimator otherwise.
func estimate(c *core.Counts, dst *core.CPT, alpha float64) error {
	if alpha > 0 {
		return c.SmoothedInto(dst, alpha, false)
	}
	return c.EmpiricalInto(dst)
}

// ensureInc attaches the incremental ε engine to a window monitor,
// enabling the per-shard dirty-cell logs, and returns it. The engine
// starts invalid, so its first sync rebuilds from the authoritative
// shard state (covering anything ingested before the logs existed). An
// exponential monitor gets no engine: ensureInc returns nil.
func (m *Monitor) ensureInc() *incEngine {
	m.incMu.Lock()
	defer m.incMu.Unlock()
	if m.inc == nil {
		eng, ok := m.eng.(*winEngine)
		if !ok {
			return nil
		}
		m.inc = newIncEngine(m, eng, defaultDirtyLogCap)
		eng.enableDirty(defaultDirtyLogCap)
	}
	return m.inc
}

// MetricSubsets is core.MetricSubsetsCounts over the monitor's effective
// counts, computed from incrementally-maintained subset marginals:
// deltas applied to the full aggregate since the last call are folded
// down the lattice (each subset derived from its one-attribute-larger
// parent), and every metric with an extrema form (core.ExtremaMetric) is
// scored from each subset's cached rate extrema, so a warm call costs
// O(cells changed × subsets) instead of O(lattice) — report latency
// independent of the table size. It returns one ladder per metric of ms,
// ordered like Space.SubsetNames and, for the integer-count window
// policies, bit-identical to core.MetricSubsetsCounts over the returned
// counts; a metric without an extrema form gets a nil ladder, for the
// caller to measure over those counts.
//
// The counts are a caller-owned copy of the synced aggregate, read
// under the same lock hold as the ladders, so a report built from both
// describes one state even while writers ingest concurrently; for the
// window policies the aggregate equals a merged snapshot cell for cell.
// The exponential policy (it has no incremental engine) and spaces of
// more than maxIncAttrs attributes return ErrIncrementalUnavailable
// before anything is attached, so declining costs nothing and leaves
// ingest unlogged; callers walk a snapshot instead. A subset with fewer than two
// supported groups returns an error wrapping core.ErrDegenerateSupport.
func (m *Monitor) MetricSubsets(ms []core.Metric) (*core.Counts, [][]core.SubsetMetric, error) {
	if _, exp := m.policy.(Exponential); exp || m.space.NumAttrs() > maxIncAttrs {
		return nil, nil, ErrIncrementalUnavailable
	}
	inc := m.ensureInc()
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.nodes == nil {
		if err := inc.buildNodes(); err != nil {
			return nil, nil, err
		}
		inc.valid = false // nodes must be seeded by a full rebuild
	}
	inc.sync(m.ticket.Load())
	ladders, err := inc.laddersLocked(ms)
	if err != nil {
		return nil, nil, err
	}
	counts, err := core.NewCounts(m.space, m.outcomes)
	if err != nil {
		return nil, nil, err
	}
	copy(counts.Cells(), inc.full.agg)
	return counts, ladders, nil
}

// Alert describes a threshold crossing.
type Alert struct {
	// Metric is the key of the fairness metric that breached; empty for
	// the primary ε threshold.
	Metric string
	// Epsilon is the estimate that crossed the threshold — the breaching
	// metric's value when Metric is non-empty.
	Epsilon float64
	// Threshold is the configured limit.
	Threshold float64
	// Witness explains which intersections drove the estimate.
	Witness core.Witness
	// SeenAt is the observation index at which the alert fired.
	SeenAt int
}

// MetricThreshold pairs a fairness metric with its alert limit. A value
// breaches on the metric's unfair side (above for higher-is-worse
// metrics like ε or gaps, below for ratio metrics — e.g. a worst-case
// positive-rate ratio under the 0.8 disparate-impact line).
type MetricThreshold struct {
	Metric    core.Metric
	Threshold float64
}

// Watch wraps a Monitor with thresholds; ObserveChecked returns a
// non-nil Alert whenever the running ε estimate is above Threshold — or
// any configured metric crosses its own limit — and at least
// minEffective mass has accumulated (avoiding cold-start noise).
type Watch struct {
	*Monitor
	Threshold    float64
	MinEffective float64
	// Metrics are additional per-metric limits, checked in order after
	// the ε threshold; the first breach wins.
	Metrics []MetricThreshold
}

// NewWatch builds a threshold watch around a monitor. On a window
// monitor, building a watch attaches the incremental ε engine: every
// check drains the cells ingested since the last one instead of
// re-merging all shards, so per-batch checked ingest stays within a
// small factor of unchecked. Additional metric thresholds ride on the
// same engine: metrics with an extrema form (core.ExtremaMetric — every
// registry metric but subgroup) are judged from the cached rate extrema
// at no extra scan, and any other metric costs one O(cells) CPT fill
// from the aggregate per check plus its Eval.
//
// On an exponential monitor NewWatch attaches nothing and every check is
// CheckFull: one O(shards × cells) merge, the one its Epsilon,
// EffectiveCount and reports read, so a check agrees with them and with
// a WriteState/ReadState restore bit for bit. threshold may be 0
// (disabling the ε check) only when at least one metric threshold is
// configured. minEffective must be finite and non-negative, and no
// metric threshold may be NaN: a comparison with NaN is always false, so
// the gate or the limit would silently never act.
func NewWatch(m *Monitor, threshold, minEffective float64, metrics ...MetricThreshold) (*Watch, error) {
	if m == nil {
		return nil, fmt.Errorf("stream: nil monitor")
	}
	if !(threshold > 0) && (len(metrics) == 0 || threshold != 0) {
		return nil, fmt.Errorf("stream: threshold must be positive, got %v", threshold)
	}
	if !(minEffective >= 0) || math.IsInf(minEffective, 1) {
		return nil, fmt.Errorf("stream: minEffective must be finite and non-negative, got %v", minEffective)
	}
	for _, mt := range metrics {
		if mt.Metric == nil {
			return nil, fmt.Errorf("stream: nil metric in threshold")
		}
		if math.IsNaN(mt.Threshold) {
			return nil, fmt.Errorf("stream: metric %s: threshold is NaN", mt.Metric.Key())
		}
		if err := mt.Metric.Applicable(m.space, m.outcomes); err != nil {
			return nil, fmt.Errorf("stream: metric %s not applicable: %w", mt.Metric.Key(), err)
		}
	}
	m.ensureInc()
	return &Watch{Monitor: m, Threshold: threshold, MinEffective: minEffective, Metrics: metrics}, nil
}

// ObserveChecked records a decision and evaluates the threshold.
func (w *Watch) ObserveChecked(group, outcome int) (*Alert, error) {
	if err := w.Observe(group, outcome); err != nil {
		return nil, err
	}
	alert, _, err := w.check()
	return alert, err
}

// ObserveBatchChecked records a batch of decisions and evaluates the
// threshold once after the batch — the per-report cost is amortized over
// the whole batch, matching the service observe path. Alongside the
// possible alert it returns the effective mass measured by the same
// snapshot, so service responses don't pay a second shard merge to
// report it.
func (w *Watch) ObserveBatchChecked(groups, outcomes []int) (*Alert, float64, error) {
	if err := w.ObserveBatch(groups, outcomes); err != nil {
		return nil, 0, err
	}
	return w.check()
}

// Check evaluates the threshold against the current state without
// recording anything: the on-demand form of the per-batch check, for
// services that need the breach state outside an observe call (e.g.
// when deciding whether to install a repair plan). It returns the alert
// (nil when under threshold or below MinEffective) and the effective
// mass of the state it measured: the incremental aggregate of a window
// monitor, the merged shards of an exponential one.
func (w *Watch) Check() (*Alert, float64, error) { return w.check() }

// check judges a window monitor's thresholds against the incrementally-
// maintained aggregate: the shards' dirty-cell logs are drained
// (O(cells touched since the last check)), evictions applied, and the
// per-outcome rate extrema refreshed for the groups the drain touched.
// ε and every metric limit with an extrema form (core.ExtremaMetric) are
// judged from those extrema; any other metric is evaluated on a CPT
// filled from the aggregate (O(cells), still no shard merge). All of
// them see the same synced state. The MinEffective gate runs on the
// incrementally-maintained mass before any estimator work, so a
// cold-start ObserveChecked loop pays only the tiny drain per
// observation. The result is bit-identical to CheckFull; the property
// suite pins that equivalence. An exponential monitor has no engine and
// checks with CheckFull.
func (w *Watch) check() (*Alert, float64, error) {
	inc := w.ensureInc()
	if inc == nil {
		return w.CheckFull()
	}
	now := w.ticket.Load()
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.sync(now)
	effective := inc.full.total
	if effective < w.MinEffective {
		return nil, effective, nil
	}
	inc.full.refresh()
	x := &inc.full.ext
	if w.Threshold > 0 {
		res, err := x.Epsilon()
		if alert, err := w.epsilonBreach(res, err); alert != nil || err != nil {
			return alert, effective, err
		}
	}
	var cpt *core.CPT
	for _, mt := range w.Metrics {
		var res core.MetricResult
		var err error
		if em, ok := mt.Metric.(core.ExtremaMetric); ok {
			res, err = em.EvalExtrema(x)
		} else {
			if cpt == nil {
				if cpt, err = inc.cptLocked(); err != nil {
					return nil, effective, fmt.Errorf("stream: metric check: %w", err)
				}
			}
			res, err = mt.Metric.Eval(cpt)
		}
		if alert, stop, err := w.metricBreach(mt, res, err); stop {
			return alert, effective, err
		}
	}
	return nil, effective, nil
}

// epsilonBreach applies the ε threshold to one measurement. A degenerate
// table (fewer than two populated groups yet) has no pairs to compare:
// no alert, not an error. Anything else is a real failure and must
// reach the caller.
func (w *Watch) epsilonBreach(res core.EpsilonResult, err error) (*Alert, error) {
	if err != nil {
		if errors.Is(err, core.ErrDegenerateSupport) {
			return nil, nil
		}
		return nil, fmt.Errorf("stream: threshold check: %w", err)
	}
	if res.Epsilon > w.Threshold {
		return &Alert{
			Epsilon:   res.Epsilon,
			Threshold: w.Threshold,
			Witness:   res.Witness,
			SeenAt:    w.Seen(),
		}, nil
	}
	return nil, nil
}

// metricBreach applies one metric limit to its measurement; stop reports
// that the check ends here, with the first breach in configuration order
// or a failure. A degenerate table has no pairs to compare under any
// metric, so it also stops the check, with no alert and no error
// (mirroring the ε path).
func (w *Watch) metricBreach(mt MetricThreshold, res core.MetricResult, err error) (alert *Alert, stop bool, _ error) {
	if err != nil {
		if errors.Is(err, core.ErrDegenerateSupport) {
			return nil, true, nil
		}
		return nil, true, fmt.Errorf("stream: metric check %s: %w", mt.Metric.Key(), err)
	}
	if core.MetricBreached(mt.Metric, res.Value, mt.Threshold) {
		return &Alert{
			Metric:    mt.Metric.Key(),
			Epsilon:   res.Value,
			Threshold: mt.Threshold,
			Witness:   res.Witness,
			SeenAt:    w.Seen(),
		}, true, nil
	}
	return nil, false, nil
}

// CheckFull evaluates the thresholds from a full shard merge into the
// reporting snapshot, a from-scratch estimator conversion, core.Epsilon,
// and Eval for every metric limit. It is how an exponential monitor's
// Watch checks, and for the window policies it is the independent
// recompute that the incremental property tests compare Check against
// bit for bit and that BenchmarkWatchObserveBatchChecked measures the
// incremental path's speedup over. Semantics match Check exactly.
func (w *Watch) CheckFull() (*Alert, float64, error) {
	w.repMu.Lock()
	defer w.repMu.Unlock()
	if err := w.eng.snapshotInto(w.snap, w.ticket.Load()); err != nil {
		return nil, 0, fmt.Errorf("stream: threshold check: %w", err)
	}
	effective := w.snap.Total()
	if effective < w.MinEffective {
		return nil, effective, nil
	}
	if err := estimate(w.snap, w.cpt, w.alpha); err != nil {
		return nil, effective, fmt.Errorf("stream: threshold check: %w", err)
	}
	if w.Threshold > 0 {
		res, err := core.Epsilon(w.cpt)
		if alert, err := w.epsilonBreach(res, err); alert != nil || err != nil {
			return alert, effective, err
		}
	}
	for _, mt := range w.Metrics {
		res, err := mt.Metric.Eval(w.cpt)
		if alert, stop, err := w.metricBreach(mt, res, err); stop {
			return alert, effective, err
		}
	}
	return nil, effective, nil
}
