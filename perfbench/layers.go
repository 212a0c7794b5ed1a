package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	fairness "repro"
	"repro/internal/loadgen"
)

// probeBudget bounds the repetitions of one layer probe.
const probeBudget = 300 * time.Millisecond

// layers times calls into each library layer on the run's own inputs
// (monitor 0's replayed batches and final window) and adds the run's
// client-side counts. Each timing is a median over repetitions.
func (b *bench) layers(e *expectation, load *loadResult) (map[string]metric, error) {
	observes := load.latencies[loadgen.OpObserve]
	if len(observes) == 0 {
		return nil, fmt.Errorf("no successful observe requests to time")
	}
	out := map[string]metric{
		"observe_p50_ms": {quantile(observes, 0.5) / 1e6, "ms"},
		"observations":   {float64(e.observed), "count"},
	}

	// stream: sharded ingest alone, then ingest plus the Watch check of ε
	// and the metric limits, from the same warm state.
	mon, err := fairness.NewTumblingMonitor(b.space, outcomes, window, alpha)
	if err != nil {
		return nil, err
	}
	ingest, err := replay(mon, e, func(bt batch) error { return mon.ObserveBatch(bt.groups, bt.outcomes) })
	if err != nil {
		return nil, err
	}
	out["ingest_batch_us"] = metric{ingest / 1e3, "us"}

	wmon, err := fairness.NewTumblingMonitor(b.space, outcomes, window, alpha)
	if err != nil {
		return nil, err
	}
	limits := make([]fairness.MetricThreshold, len(metricLimits))
	for i, l := range metricLimits {
		m, err := fairness.MetricByKey(l.Key)
		if err != nil {
			return nil, err
		}
		limits[i] = fairness.MetricThreshold{Metric: m, Threshold: l.Threshold}
	}
	watch, err := fairness.NewWatch(wmon, epsilonLimit, minEffective, limits...)
	if err != nil {
		return nil, err
	}
	check, err := replay(wmon, e, func(bt batch) error {
		_, _, err := watch.ObserveBatchChecked(bt.groups, bt.outcomes)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["watch_check_us"] = metric{check / 1e3, "us"}

	// core and fairmetrics: ε and the report metrics on one snapshot.
	hot, err := b.counts(e.tallies[0])
	if err != nil {
		return nil, err
	}
	cpt, err := hot.Smoothed(alpha, false)
	if err != nil {
		return nil, err
	}
	metrics := []fairness.Metric{fairness.DFEpsilon}
	for _, key := range strings.Split(reportMetrics, ",") {
		m, err := fairness.MetricByKey(key)
		if err != nil {
			return nil, err
		}
		metrics = append(metrics, m)
	}
	eval, err := probe(func() error {
		for _, m := range metrics {
			if _, err := m.Eval(cpt); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["metric_eval_us"] = metric{eval / 1e3, "us"}

	// The audit pipeline in stages: subset ladders with metric sections,
	// then each uncertainty engine alone (resample, bayes), then the JSON
	// encoding of the full report.
	keys := fairness.WithMetrics(strings.Split(reportMetrics, ",")...)
	stages := []struct {
		name string
		opts []fairness.Option
	}{
		{"audit_ladders_ms", []fairness.Option{keys}},
		{"bootstrap_ms", []fairness.Option{keys, fairness.WithSubsets(false), fairness.WithBootstrap(resamples, 0.95)}},
		{"credible_ms", []fairness.Option{keys, fairness.WithSubsets(false), fairness.WithCredible(resamples, 1, 0.95)}},
	}
	for _, st := range stages {
		auditor, err := fairness.NewAuditor(b.space, outcomes,
			append([]fairness.Option{fairness.WithAlpha(alpha), fairness.WithSeed(b.seed)}, st.opts...)...)
		if err != nil {
			return nil, err
		}
		ns, err := probe(func() error {
			_, err := auditor.Run(context.Background(), hot)
			return err
		})
		if err != nil {
			return nil, err
		}
		out[st.name] = metric{ns / 1e6, "ms"}
	}
	full, err := fairness.NewAuditor(b.space, outcomes, b.reportOptions()...)
	if err != nil {
		return nil, err
	}
	rep, err := full.Run(context.Background(), hot)
	if err != nil {
		return nil, err
	}
	render, err := probe(func() error { return rep.RenderJSON(io.Discard) })
	if err != nil {
		return nil, err
	}
	out["render_us"] = metric{render / 1e3, "us"}
	return out, nil
}

// replay feeds monitor 0's warm-up batch to mon untimed, then times f
// on each replayed ingest batch and returns the median in ns.
func replay(mon *fairness.Monitor, e *expectation, f func(batch) error) (float64, error) {
	if err := mon.ObserveBatch(e.warm.groups, e.warm.outcomes); err != nil {
		return 0, err
	}
	ns := make([]float64, 0, len(e.hot))
	for _, bt := range e.hot {
		start := time.Now()
		if err := f(bt); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(start)))
	}
	return median(ns), nil
}

// probe runs f repeatedly, at least three times and otherwise until
// probeBudget is spent, and returns the median duration in ns.
func probe(f func() error) (float64, error) {
	var ns []float64
	for begin := time.Now(); len(ns) < 3 || time.Since(begin) < probeBudget; {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(start)))
	}
	return median(ns), nil
}
