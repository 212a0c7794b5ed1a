package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strings"

	fairness "repro"
)

// maxProbeBatches caps the hot monitor's batches kept for the layer
// probes.
const maxProbeBatches = 2000

// expectation is what the server must hold after a run: every
// acknowledged decision, per monitor.
type expectation struct {
	// tallies[i] holds monitor i's decisions per (group, outcome), row
	// major.
	tallies [][]float64
	// observed counts the decisions acknowledged after set-up.
	observed int
	// warm and hot are monitor 0's warm-up batch and its first measured
	// batches, in order, for the layer probes.
	warm batch
	hot  []batch
}

type batch struct{ groups, outcomes []int }

func newExpectation(monitors, cells int) *expectation {
	e := &expectation{tallies: make([][]float64, monitors)}
	for i := range e.tallies {
		e.tallies[i] = make([]float64, cells)
	}
	return e
}

func (e *expectation) tally(monitor int, groups, ys []int) {
	for j, g := range groups {
		e.tallies[monitor][g*len(outcomes)+ys[j]]++
	}
}

func (e *expectation) warmup(monitor int, groups, ys []int) {
	e.tally(monitor, groups, ys)
	if monitor == 0 {
		e.warm = batch{slices.Clone(groups), slices.Clone(ys)}
	}
}

func (e *expectation) ingest(monitor int, groups, ys []int) {
	e.tally(monitor, groups, ys)
	e.observed += len(groups)
	if monitor == 0 && len(e.hot) < maxProbeBatches {
		e.hot = append(e.hot, batch{slices.Clone(groups), slices.Clone(ys)})
	}
}

// counts converts a tally to the library's contingency table.
func (b *bench) counts(tally []float64) (*fairness.Counts, error) {
	c, err := fairness.NewCounts(b.space, outcomes)
	if err != nil {
		return nil, err
	}
	k := len(outcomes)
	for i, v := range tally {
		if v > 0 {
			if err := c.Add(i/k, i%k, v); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// reportOptions mirror reportQuery on the library's Auditor.
func (b *bench) reportOptions() []fairness.Option {
	return []fairness.Option{
		fairness.WithAlpha(alpha),
		fairness.WithMetrics(strings.Split(reportMetrics, ",")...),
		fairness.WithBootstrap(resamples, 0.95),
		fairness.WithCredible(resamples, 1, 0.95),
		fairness.WithSeed(b.seed),
	}
}

// verify fetches every monitor's report and requires it to equal the
// in-process audit of the replayed decisions, and its headline values
// to match the definitions computed here from scratch.
func (b *bench) verify(s *server, e *expectation) error {
	auditor, err := fairness.NewAuditor(b.space, outcomes, b.reportOptions()...)
	if err != nil {
		return err
	}
	for i, id := range b.ids {
		body, err := s.fetch(http.MethodGet, "/v1/monitors/"+id+"/report?"+b.reportQuery(), nil, http.StatusOK)
		if err != nil {
			return err
		}
		var got map[string]any
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("monitor %s: report: %w", id, err)
		}
		// How the server assembled its ladder is the one thing a plain
		// audit of the same counts does not record.
		delete(got, "ladder_source")
		delete(got, "ladder_fallback_reason")

		c, err := b.counts(e.tallies[i])
		if err != nil {
			return err
		}
		rep, err := auditor.Run(context.Background(), c)
		if err != nil {
			return fmt.Errorf("monitor %s: reference audit: %w", id, err)
		}
		var buf bytes.Buffer
		if err := rep.RenderJSON(&buf); err != nil {
			return err
		}
		var want map[string]any
		if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("monitor %s: served report differs from the reference audit in %v", id, differingKeys(got, want))
		}
		if err := checkDefinitions(got, e.tallies[i]); err != nil {
			return fmt.Errorf("monitor %s: %w", id, err)
		}
	}
	return nil
}

func differingKeys(got, want map[string]any) []string {
	var keys []string
	for k := range got {
		if !reflect.DeepEqual(got[k], want[k]) {
			keys = append(keys, k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// checkDefinitions recomputes the observation count, ε and the four
// report metrics from their definitions on the Eq. 7 smoothed estimator
// P(y|s) = (n_ys + α) / (n_s + |Y|α) over groups with data, and compares
// them with the report's values.
func checkDefinitions(rep map[string]any, tally []float64) error {
	k := len(outcomes)
	lo := []float64{math.Inf(1), math.Inf(1)}
	hi := []float64{math.Inf(-1), math.Inf(-1)}
	total := 0.0
	for g := 0; g < len(tally)/k; g++ {
		row := tally[g*k : (g+1)*k]
		ns := row[0] + row[1]
		if ns == 0 {
			continue
		}
		total += ns
		for y, n := range row {
			p := (n + alpha) / (ns + float64(k)*alpha)
			lo[y], hi[y] = min(lo[y], p), max(hi[y], p)
		}
	}
	want := map[string]float64{
		"observations":       total,
		"epsilon":            max(math.Log(hi[0])-math.Log(lo[0]), math.Log(hi[1])-math.Log(lo[1])),
		"worst_gap":          max(hi[0]-lo[0], hi[1]-lo[1]),
		"worst_ratio":        lo[1] / hi[1],
		"alpha_if":           0.5*(1-lo[1]) + 0.5*(hi[1]-lo[1]),
		"demographic_parity": hi[1] - lo[1],
	}
	got := map[string]any{"observations": rep["observations"], "epsilon": rep["epsilon"]}
	sections, _ := rep["metrics"].([]any)
	for _, s := range sections {
		if m, ok := s.(map[string]any); ok {
			if key, ok := m["key"].(string); ok {
				got[key] = m["value"]
			}
		}
	}
	for key, w := range want {
		v, ok := got[key].(float64)
		if !ok || math.Abs(v-w) > 1e-9*max(1, math.Abs(w)) {
			return fmt.Errorf("%s = %v, definition gives %v", key, got[key], w)
		}
	}
	return nil
}
