package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/loadgen"
)

// Alert limits of watched monitors: ε plus one limit per report metric.
// A Watch stops at the first breach, so a limit the stream can reach
// would make the cost of a check depend on the seed. These cannot be
// crossed: with α = 1 smoothing every rate lies in [1/(n+2), 1], so ε
// stays below ln(window+2) ≈ 21, and each metric limit is that metric's
// worst value. Every batch past minEffective therefore pays the full
// check: the incremental ε, one snapshot merge and four metric
// evaluations.
const (
	epsilonLimit = 25.0
	minEffective = 2048
)

var metricLimits = []struct {
	Key       string  `json:"key"`
	Threshold float64 `json:"threshold"`
}{
	{"worst_gap", 1},
	{"worst_ratio", 0},
	{"alpha_if", 1},
	{"demographic_parity", 1},
}

// warmupSalt keeps the set-up stream off the measured stream's rng
// substreams.
const warmupSalt = 0x9e3779b97f4a7c15

// window is a tumbling window no run fills, so a monitor's counts depend
// only on which decisions arrived, not on their order, and the final
// reports can be checked against the decisions sent.
const window = 1 << 30

func (b *bench) synthConfig(mix loadgen.Mix, batch int, seed uint64) loadgen.WorkloadConfig {
	return loadgen.WorkloadConfig{
		Space:      b.space,
		Outcomes:   len(outcomes),
		Monitors:   b.w.monitors,
		GroupSkew:  groupSkew,
		BatchSize:  batch,
		Mix:        mix,
		BaseRate:   0.2,
		RateSpread: 0.5,
		Seed:       seed,
	}
}

func (b *bench) reportQuery() string {
	return fmt.Sprintf("metrics=%s&bootstrap=%d&credible=%d&seed=%d",
		reportMetrics, resamples, resamples, b.seed)
}

// provision creates every monitor, feeds it its warm-up batch, and
// returns the expectation those batches start.
func (b *bench) provision(s *server) (*expectation, error) {
	type attr struct {
		Name   string   `json:"name"`
		Values []string `json:"values"`
	}
	spec := struct {
		Space    []attr   `json:"space"`
		Outcomes []string `json:"outcomes"`
		Window   struct {
			Size int `json:"size"`
		} `json:"window"`
		Alpha        float64 `json:"alpha"`
		Threshold    float64 `json:"threshold,omitempty"`
		MinEffective float64 `json:"min_effective,omitempty"`
		Metrics      any     `json:"metrics,omitempty"`
	}{Outcomes: outcomes, Alpha: alpha}
	spec.Window.Size = window
	for _, a := range b.space.Attrs() {
		spec.Space = append(spec.Space, attr{a.Name, a.Values})
	}
	if b.w.watched {
		spec.Threshold, spec.MinEffective, spec.Metrics = epsilonLimit, minEffective, metricLimits
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	warm, err := loadgen.NewSynth(b.synthConfig(loadgen.Mix{Observe: 1}, b.w.warmup, b.seed^warmupSalt), 0)
	if err != nil {
		return nil, err
	}
	e := newExpectation(len(b.ids), b.space.Size()*len(outcomes))
	var req loadgen.Request
	for i, id := range b.ids {
		if _, err := s.fetch(http.MethodPut, "/v1/monitors/"+id, body, http.StatusCreated); err != nil {
			return nil, err
		}
		warm.Next(&req)
		obs := loadgen.AppendJSONObserve(nil, req.Groups, req.Outcomes)
		if _, err := s.fetch(http.MethodPost, "/v1/monitors/"+id+"/observe", obs, http.StatusOK); err != nil {
			return nil, err
		}
		e.warmup(i, req.Groups, req.Outcomes)
	}
	return e, nil
}

// fetch issues one set-up or verification request and returns the body
// of a response with the wanted status.
func (s *server) fetch(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// loadResult is what one measured load phase produced.
type loadResult struct {
	// latencies holds each successful request's latency in ns, by kind.
	latencies map[loadgen.Op][]int64
	elapsed   time.Duration
	attempted int
	failed    int
	firstErr  error
}

// drive runs the measured phase for d: the closed-loop client sends the
// workload's next request each time the previous one returns. Every
// acknowledged batch is added to e.
func (b *bench) drive(s *server, e *expectation, d time.Duration) (*loadResult, error) {
	rec := &recorder{latencies: map[loadgen.Op][]int64{}}
	do := &doer{client: s.client, base: s.base, ids: b.ids, reportQuery: b.reportQuery(), exp: e}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	start := time.Now()
	_, err := loadgen.Run(ctx, loadgen.RunConfig{
		Workload: b.synthConfig(b.w.mix, b.w.batch, b.seed),
		Requests: math.MaxInt32,
		Workers:  clients,
		Clock:    wallClock{base: start},
		Doer:     do,
		OnResult: rec.add,
	})
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	return &loadResult{
		latencies: rec.latencies,
		elapsed:   elapsed,
		attempted: rec.attempted,
		failed:    rec.failed,
		firstErr:  rec.firstErr,
	}, nil
}

// recorder collects request outcomes from concurrent clients.
type recorder struct {
	mu        sync.Mutex
	latencies map[loadgen.Op][]int64
	attempted int
	failed    int
	firstErr  error
}

func (r *recorder) add(res loadgen.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	switch {
	case res.Err != nil:
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", res.Op, res.Err)
		}
	case res.Status != http.StatusOK:
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: status %d", res.Op, res.Status)
		}
	default:
		r.latencies[res.Op] = append(r.latencies[res.Op], res.LatencyNs)
	}
}

// doer sends the generator's requests to dfserve. It checks each 200
// body cheaply, since the check sits inside the timed request, and
// records every acknowledged batch for the final verification. Only
// loadgen's closed-loop runner hands Do the batch itself; the open-loop
// one passes the encoded body alone.
type doer struct {
	client      *http.Client
	base        string
	ids         []string
	reportQuery string

	mu  sync.Mutex
	exp *expectation
}

func (d *doer) Do(req *loadgen.Request, body []byte, _ bool) (int, bool, error) {
	id := d.ids[req.Monitor]
	var hr *http.Request
	var err error
	if req.Op == loadgen.OpReport {
		hr, err = http.NewRequest(http.MethodGet, d.base+"/v1/monitors/"+id+"/report?"+d.reportQuery, nil)
	} else {
		hr, err = http.NewRequest(http.MethodPost, d.base+"/v1/monitors/"+id+"/observe", bytes.NewReader(body))
		if err == nil {
			hr.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return 0, false, err
	}
	resp, err := d.client.Do(hr)
	if err != nil {
		return 0, false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, resp.Header.Get("Retry-After") != "", nil
	}
	if req.Op == loadgen.OpReport {
		// The full report is checked against a reference after the run.
		if !bytes.Contains(data[:min(len(data), 64)], []byte(`"schema_version"`)) {
			return 0, false, fmt.Errorf("report body is not a versioned report")
		}
		return http.StatusOK, false, nil
	}
	var ack struct {
		Observed int `json:"observed"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		return 0, false, fmt.Errorf("observe ack: %w", err)
	}
	if ack.Observed != len(req.Groups) {
		return 0, false, fmt.Errorf("observe ack: %d observed, want %d", ack.Observed, len(req.Groups))
	}
	d.mu.Lock()
	d.exp.ingest(req.Monitor, req.Groups, req.Outcomes)
	d.mu.Unlock()
	return http.StatusOK, false, nil
}

// wallClock is loadgen's Clock on the monotonic clock.
type wallClock struct{ base time.Time }

func (c wallClock) Now() int64            { return time.Since(c.base).Nanoseconds() }
func (c wallClock) Sleep(d time.Duration) { time.Sleep(d) }
