package fairness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/stream"
)

// Monitor is the public face of the streaming fairness monitor: a
// sharded concurrent contingency table whose ε estimate tracks a
// deployed system's recent decisions (the paper's "critiquing deployed
// systems" use case, §1). Observe and ObserveBatch record decisions from
// any number of goroutines — ingestion scales with cores because each
// observation lands in one of several independently-locked shards —
// while Epsilon, Snapshot and Audit merge the shards into a consistent
// view on demand.
//
// Three window policies share the engine: exponential decay
// (NewMonitor), a tumbling window (NewTumblingMonitor) and a bucketed
// sliding window (NewSlidingMonitor). All report through the same
// surface, so a Watch or an Audit works over any of them.
type Monitor struct {
	inner    *stream.Monitor
	space    *Space
	outcomes []string
	alpha    float64
	// memo holds the interval sections of the last report that drew
	// any; see Audit.
	memo intervalMemo
}

// NewMonitor creates an exponentially-decayed streaming monitor.
// halfLife is the number of observations after which an old
// observation's influence is halved (must be > 0); alpha is the Eq. 7
// smoothing applied when reporting ε (0 = empirical), and doubles as the
// default estimator for Audit.
func NewMonitor(space *Space, outcomes []string, halfLife, alpha float64) (*Monitor, error) {
	return newMonitor(space, outcomes, stream.Exponential{HalfLife: halfLife}, alpha)
}

// NewTumblingMonitor creates a monitor covering only the current window
// of `window` observations; the table resets at each window boundary.
// Window counts are integral, so WithBootstrap applies to Audit
// snapshots of this monitor.
func NewTumblingMonitor(space *Space, outcomes []string, window int, alpha float64) (*Monitor, error) {
	return newMonitor(space, outcomes, stream.Tumbling{Window: window}, alpha)
}

// NewSlidingMonitor creates a monitor covering approximately the most
// recent `window` observations, evicted in window/buckets-sized
// increments (buckets must be ≥ 2 and divide window). Smaller bucket
// spans track drift at finer granularity for proportionally more
// memory.
func NewSlidingMonitor(space *Space, outcomes []string, window, buckets int, alpha float64) (*Monitor, error) {
	return newMonitor(space, outcomes, stream.Sliding{Window: window, Buckets: buckets}, alpha)
}

func newMonitor(space *Space, outcomes []string, policy stream.Policy, alpha float64) (*Monitor, error) {
	inner, err := stream.New(space, outcomes, stream.Config{Policy: policy, Alpha: alpha})
	if err != nil {
		return nil, err
	}
	return &Monitor{
		inner:    inner,
		space:    space,
		outcomes: append([]string(nil), outcomes...),
		alpha:    alpha,
	}, nil
}

// Space returns the protected-attribute space the monitor is over.
func (m *Monitor) Space() *Space { return m.space }

// Outcomes returns a copy of the outcome labels.
func (m *Monitor) Outcomes() []string { return append([]string(nil), m.outcomes...) }

// Observe records one decision. Safe for concurrent use.
func (m *Monitor) Observe(group, outcome int) error { return m.inner.Observe(group, outcome) }

// ObserveBatch records len(groups) decisions in one call — the hot
// ingest path. The batch draws a single ticket range and lands in a
// single shard, amortizing lock and decay work; an invalid element
// rejects the whole batch before any state changes. It is ValidateBatch
// then ObserveValidated. Safe for concurrent use.
func (m *Monitor) ObserveBatch(groups, outcomes []int) error {
	return m.inner.ObserveBatch(groups, outcomes)
}

// ValidBatch is a batch of (group, outcome) index pairs checked against
// a monitor's shape by Monitor.ValidateBatch. It records the shape it
// was checked against (the group and outcome counts), so it can be
// checked once, before a caller commits it anywhere, and then ingested
// by ObserveValidated or Watch.ObserveValidatedChecked into any monitor
// of that shape at the cost of one comparison. It shares the slices it
// was checked over: writing to them before it is ingested voids the
// check. The zero value fits no monitor.
type ValidBatch = stream.ValidBatch

// ValidateBatch checks a batch against the monitor's shape: both
// columns of one length, every group index inside the space and every
// outcome index inside the outcomes. It is the check ObserveBatch runs,
// and it allocates only to report an invalid batch.
func (m *Monitor) ValidateBatch(groups, outcomes []int) (ValidBatch, error) {
	return m.inner.ValidateBatch(groups, outcomes)
}

// ObserveValidated records a batch that ValidateBatch checked against a
// monitor of this one's shape; it refuses one checked against another
// shape. It is ObserveBatch without the walk over the pairs, and
// allocates nothing. Safe for concurrent use.
func (m *Monitor) ObserveValidated(b ValidBatch) error { return m.inner.ObserveValidated(b) }

// ObserveValues records one decision by attribute value names (in
// attribute order) and outcome name, so callers don't hand-encode group
// indices: ObserveValues([]string{"F", "B"}, "deny").
func (m *Monitor) ObserveValues(values []string, outcome string) error {
	return m.inner.ObserveValues(values, outcome)
}

// Seen returns the number of observations so far.
func (m *Monitor) Seen() int { return m.inner.Seen() }

// EffectiveCount returns the total effective mass: the number of
// observations in the current window for windowed policies, or the
// decayed total (bounded above by the half-life's equivalent window
// size) for exponential decay.
func (m *Monitor) EffectiveCount() float64 { return m.inner.EffectiveCount() }

// Epsilon reports the current ε estimate over the effective counts.
func (m *Monitor) Epsilon() (EpsilonResult, error) { return m.inner.Epsilon() }

// Snapshot returns the effective counts as a caller-owned Counts.
func (m *Monitor) Snapshot() (*Counts, error) { return m.inner.Snapshot() }

// SnapshotInto overwrites dst with the current effective counts without
// allocating; dst must match the monitor's space and outcomes.
func (m *Monitor) SnapshotInto(dst *Counts) error { return m.inner.SnapshotInto(dst) }

// Alert describes a threshold crossing reported by a Watch. Its Metric
// field names the breaching metric's key; it is empty for the primary ε
// threshold.
type Alert = stream.Alert

// MetricThreshold pairs a fairness metric with its alert limit for
// NewWatch. A value breaches on the metric's unfair side: above the
// limit for higher-is-worse metrics (ε, gaps), below it for ratio
// metrics (e.g. WorstRatio under the 0.8 disparate-impact line).
type MetricThreshold = stream.MetricThreshold

// Watch wraps a Monitor with thresholds: ObserveChecked returns a
// non-nil Alert whenever the running ε estimate exceeds the threshold —
// or any configured metric crosses its own limit — and at least
// minEffective effective mass has accumulated (avoiding cold-start
// noise). The embedded Monitor remains fully usable, including Audit.
type Watch struct {
	*Monitor
	inner *stream.Watch
}

// NewWatch builds a threshold watch around a monitor. threshold must be
// positive and minEffective finite and non-negative. Optional per-metric
// thresholds (never NaN) extend alerting beyond ε, and threshold may be
// 0 — disabling the ε check — when at least one metric threshold is
// given. On a tumbling or sliding monitor, checks run on the incremental
// ε engine and metric limits ride on it too: every registry metric but
// subgroup is judged from the per-outcome rate extrema the engine
// already keeps, and any other metric from a CPT the engine fills from
// its aggregate in O(cells), with no shard merge. On an exponential
// monitor every check is CheckFull, one merge of the shards, so a check
// agrees bit for bit with Epsilon, EffectiveCount and a restored
// monitor.
func NewWatch(m *Monitor, threshold, minEffective float64, metrics ...MetricThreshold) (*Watch, error) {
	if m == nil {
		return nil, fmt.Errorf("fairness: NewWatch: nil monitor")
	}
	inner, err := stream.NewWatch(m.inner, threshold, minEffective, metrics...)
	if err != nil {
		return nil, err
	}
	return &Watch{Monitor: m, inner: inner}, nil
}

// ObserveChecked records a decision and evaluates the threshold. A table
// with fewer than two populated groups yields no alert (and no error);
// any other reporting failure propagates.
func (w *Watch) ObserveChecked(group, outcome int) (*Alert, error) {
	return w.inner.ObserveChecked(group, outcome)
}

// ObserveBatchChecked records a batch of decisions and evaluates the
// threshold once after the batch, amortizing the report cost — the
// service observe path. The second return is the effective mass measured
// by the same snapshot, saving callers a separate EffectiveCount merge.
func (w *Watch) ObserveBatchChecked(groups, outcomes []int) (*Alert, float64, error) {
	return w.inner.ObserveBatchChecked(groups, outcomes)
}

// ObserveValidatedChecked is ObserveBatchChecked for a batch that
// ValidateBatch already checked: ObserveValidated, then one threshold
// check.
func (w *Watch) ObserveValidatedChecked(b ValidBatch) (*Alert, float64, error) {
	return w.inner.ObserveValidatedChecked(b)
}

// Check evaluates the threshold against the current state without
// recording any decision: the on-demand breach probe services use when
// reporting state outside an observe call (e.g. confirming the ε breach
// that motivated a repair-plan request). Returns the alert (nil when
// under threshold or below the minimum effective mass) and the measured
// effective mass. On a window monitor it runs on the incremental ε
// engine — O(cells changed since the last check), not O(shards × cells);
// on an exponential monitor it is CheckFull.
func (w *Watch) Check() (*Alert, float64, error) { return w.inner.Check() }

// CheckFull is Check computed from a full shard merge, a from-scratch ε
// scan and an Eval per metric limit. It is how an exponential monitor's
// watch checks; for the window policies it is the independent recompute
// that Check equals bit for bit, kept for verification and benchmarking.
func (w *Watch) CheckFull() (*Alert, float64, error) { return w.inner.CheckFull() }

// WriteState serializes the monitor's full engine state — tickets,
// decay bases, bucket epochs, and cells as raw IEEE-754 bits — so a
// restored monitor reports byte-identically to the original. The caller
// must ensure no Observe/ObserveBatch calls are in flight during the
// capture.
func (m *Monitor) WriteState(w io.Writer) error { return m.inner.WriteState(w) }

// ReadState restores a WriteState capture into a freshly-constructed
// monitor with the same space shape, policy and alpha. Malformed or
// mismatched input is rejected without touching the monitor, so
// arbitrary snapshot bytes can corrupt nothing.
func (m *Monitor) ReadState(r io.Reader) error { return m.inner.ReadState(r) }

// MonitorShards returns the per-monitor ingest shard count this
// package's constructors use: a machine-sized default (about twice
// GOMAXPROCS). A monitor's memory is roughly shards × groups × outcomes
// (× buckets for sliding windows) float64 cells.
func MonitorShards() int { return stream.DefaultShards() }

// Audit snapshots the effective counts and runs the full audit pipeline
// over them, producing the same versioned Report as Auditor.Run. It is
// NewAuditor over the monitor's space and outcomes, with the monitor's
// smoothing alpha applied first and opts appended (they may override
// it), followed by Auditor.RunMonitor, whose doc says which ladder path
// runs and when a report reuses the last one's interval draws.
//
// Exponentially-decayed counts are non-integral, so WithBootstrap is not
// applicable to those snapshots (the bootstrap requires integer counts
// and will reject it) — use WithCredible there. Tumbling and sliding
// windows hold integral counts, and the bootstrap applies.
func (m *Monitor) Audit(ctx context.Context, opts ...Option) (*Report, error) {
	auditor, err := NewAuditor(m.space, m.outcomes, append([]Option{WithAlpha(m.alpha)}, opts...)...)
	if err != nil {
		return nil, err
	}
	return auditor.RunMonitor(ctx, m)
}
