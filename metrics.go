package fairness

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fairmetrics"
)

// Metric is a fairness metric computable from one counts/CPT snapshot —
// the same (group, outcome) table ε consumes. See core.Metric for the
// full contract: deterministic Eval, an orientation (HigherIsWorse), a
// WorstValue scored by degenerate resamples, and an Applicable shape
// check. Every metric flows through the same machinery as ε: subset
// ladders, bootstrap and credible intervals, Watch alerting and the
// versioned report.
type Metric = core.Metric

// MetricResult is one measured metric value with its witness groups.
type MetricResult = core.MetricResult

// SubsetMetric is one metric value measured over a subset of the
// protected attributes.
type SubsetMetric = core.SubsetMetric

// DFEpsilon is ε-differential fairness as a Metric (key "epsilon").
var DFEpsilon = core.DFEpsilon

// MetricWorse reports whether a is more unfair than b under the metric's
// orientation.
func MetricWorse(m Metric, a, b float64) bool { return core.MetricWorse(m, a, b) }

// MetricBreached reports whether a measured value crosses the threshold
// on the metric's unfair side.
func MetricBreached(m Metric, value, threshold float64) bool {
	return core.MetricBreached(m, value, threshold)
}

// metricRegistry maps selector keys to constructors of the built-in
// metrics. Parameterized metrics get their documented default here; use
// the concrete types (e.g. fairmetrics.AlphaIntersectional) via
// WithMetric for other parameters.
var metricRegistry = map[string]func() Metric{
	"epsilon":            func() Metric { return core.DFEpsilon },
	"worst_gap":          func() Metric { return fairmetrics.WorstGap{} },
	"worst_ratio":        func() Metric { return fairmetrics.WorstRatio{} },
	"alpha_if":           func() Metric { return fairmetrics.AlphaIntersectional{Alpha: 0.5} },
	"subgroup":           func() Metric { return fairmetrics.SubgroupParity{} },
	"demographic_parity": func() Metric { return fairmetrics.DemographicParity{} },
}

// MetricByKey resolves a selector key (as accepted by WithMetrics and
// dfserve's metrics= parameter) to its built-in metric. The error lists
// the known keys.
func MetricByKey(key string) (Metric, error) {
	if mk, ok := metricRegistry[key]; ok {
		return mk(), nil
	}
	return nil, fmt.Errorf("fairness: unknown metric %q (known: %v)", key, MetricKeys())
}

// MetricKeys returns the sorted selector keys of the built-in metrics.
func MetricKeys() []string {
	keys := make([]string, 0, len(metricRegistry))
	//df:ignore determinism — keys are sorted below, so map order cannot leak
	for k := range metricRegistry {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WithMetrics requests additional fairness metrics by registry key (see
// MetricKeys); each gets its own section in the report — value, witness,
// subset ladder, and whatever bootstrap/credible uncertainty the other
// options request. ε and every requested metric share one draw per
// bootstrap replicate, per posterior sample and per lattice node, so K
// metrics over B replicates cost B draws plus one validated scan per
// table, and Eval only for metrics without an extrema form
// (core.EvalMetrics); every metric is measured over exactly the same
// tables as ε. Keys
// resolve at option time; applicability to the auditor's table shape is
// validated by NewAuditor.
func WithMetrics(keys ...string) Option {
	return auditOption(func(c *auditConfig) error {
		if len(keys) == 0 {
			return fmt.Errorf("fairness: WithMetrics: at least one metric key is required")
		}
		for _, k := range keys {
			m, err := MetricByKey(k)
			if err != nil {
				return err
			}
			if err := c.addMetric(m); err != nil {
				return err
			}
		}
		return nil
	})
}

// WithMetric requests one additional fairness metric by value — the
// programmatic form of WithMetrics for custom implementations or
// non-default parameters (e.g. fairmetrics.AlphaIntersectional with a
// different α).
func WithMetric(m Metric) Option {
	return auditOption(func(c *auditConfig) error {
		if m == nil {
			return fmt.Errorf("fairness: WithMetric(nil)")
		}
		return c.addMetric(m)
	})
}

func (c *auditConfig) addMetric(m Metric) error {
	for _, have := range c.metrics {
		if have.Key() == m.Key() {
			return fmt.Errorf("fairness: metric %q requested twice", m.Key())
		}
	}
	c.metrics = append(c.metrics, m)
	return nil
}
