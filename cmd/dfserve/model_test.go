package main

// The model-based test of the serving path: seeded random transcripts of
// requests over three monitor ids run against a durable server, which a
// transcript restarts cleanly or abruptly at random points, and against
// an in-memory control server that never restarts. Every response must
// match the control's byte for byte. The generator keeps a small model
// of the registry (which ids exist, their shape, which have a plan), so
// most requests are valid and reach the write path, while a share are
// bad requests: 400, 404, 409 and 413.
//
// A failing transcript is shrunk, by dropping steps while it still
// fails, and printed as a transcript literal: paste it into
// transcriptRegressions and TestTranscriptRegressions replays it.
// FuzzTranscript takes the generator's seed as its input, so
// `go test -fuzz FuzzTranscript` explores further seeds and records a
// failing one under testdata/fuzz.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/rng"
	"repro/internal/wal"
)

// step is one request of a transcript. A step whose Method is "RESTART"
// restarts the durable server instead; its Path is "clean" (a final
// snapshot and a closed log, as after SIGTERM) or "abrupt" (neither, as
// after SIGKILL).
type step struct {
	Method, Path, ContentType, Body string
}

// transcript is a replayable run: the durable server's snapshot interval
// and the steps.
type transcript struct {
	snapInterval int
	steps        []step
}

// snapshotIntervals are the durable server's intervals under test: a
// snapshot after every record, after every few, and never.
var snapshotIntervals = []int{1, 3, 7, 1 << 30}

// modelConfig is both servers' configuration. The limits are small so
// that bad requests are cheap to make: two monitors of three ids, 2 KiB
// bodies and 64 resamples.
func modelConfig() serverConfig {
	return serverConfig{workers: 1, maxBody: 2048, maxResamples: 64, maxMonitors: 2, maxMonitorCells: 1 << 14}
}

// twin is the durable server under test and its never-restarting
// control.
type twin struct {
	cfg     serverConfig
	control *server
	durable *server
}

func newTwin(tb testing.TB, snapInterval int) *twin {
	cfg := modelConfig()
	control := newServer(cfg)
	cfg.dataDir = tb.TempDir()
	cfg.fsync = wal.SyncOS
	cfg.snapshotInterval = snapInterval
	tw := &twin{cfg: cfg, control: control, durable: newServer(cfg)}
	tb.Cleanup(func() { tw.stop(false) })
	return tw
}

// stop shuts the durable server down: cleanly runs closeStore; abruptly
// only releases the log's file, whose records are already written.
func (tw *twin) stop(clean bool) {
	if clean {
		tw.durable.reg.closeStore()
	} else if lg := tw.durable.reg.store.log; lg != nil {
		lg.Close()
	}
}

// do runs one step and returns the control's status code and a
// description of how the two servers disagreed, or "" when they agree.
func (tw *twin) do(s step) (int, string) {
	if s.Method == "RESTART" {
		tw.stop(s.Path == "clean")
		tw.durable = newServer(tw.cfg)
		if reason := tw.durable.reg.store.degraded(); reason != "" {
			return 0, "restart came up degraded: " + reason
		}
		return 0, ""
	}
	code, want := serveStep(tw.control, s)
	gotCode, got := serveStep(tw.durable, s)
	if code != gotCode || want != got {
		return code, fmt.Sprintf("%s %s\n got: %d %s\nwant: %d %s", s.Method, s.Path, gotCode, got, code, want)
	}
	return code, ""
}

// serveStep serves one request in process.
func serveStep(sv *server, s step) (int, string) {
	req := httptest.NewRequest(s.Method, s.Path, strings.NewReader(s.Body))
	if s.ContentType != "" {
		req.Header.Set("Content-Type", s.ContentType)
	}
	rec := httptest.NewRecorder()
	sv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// replay runs a transcript on a fresh twin and returns the first
// disagreement, or "".
func replay(tb testing.TB, tr transcript) string {
	tw := newTwin(tb, tr.snapInterval)
	for i, s := range tr.steps {
		if _, msg := tw.do(s); msg != "" {
			return fmt.Sprintf("step %d: %s", i, msg)
		}
	}
	return ""
}

// shrink drops chunks of steps, halving the chunk size down to one
// step, for as long as the transcript still fails.
func shrink(tb testing.TB, tr transcript) transcript {
	for chunk := len(tr.steps) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(tr.steps); {
			cand := transcript{snapInterval: tr.snapInterval}
			cand.steps = append(append(cand.steps, tr.steps[:i]...), tr.steps[i+chunk:]...)
			if replay(tb, cand) != "" {
				tr = cand
			} else {
				i += chunk
			}
		}
	}
	return tr
}

// literal renders the transcript as Go source for transcriptRegressions.
func (tr transcript) literal() string {
	var b strings.Builder
	fmt.Fprintf(&b, "{snapInterval: %d, steps: []step{\n", tr.snapInterval)
	for _, s := range tr.steps {
		fmt.Fprintf(&b, "\t{%q, %q, %q, %q},\n", s.Method, s.Path, s.ContentType, s.Body)
	}
	b.WriteString("}},")
	return b.String()
}

// modelMonitor is what the generator knows of one registered monitor.
type modelMonitor struct {
	attrs    [][]string // each attribute's values; attribute i is named "a<i>"
	outcomes []string
	groups   int
	window   bool // a tumbling or sliding policy (its counts are integral)
	plan     bool // a repair plan is installed
}

// generator draws the steps of one transcript from a seed, following
// the control server's answers so that its model stays true.
type generator struct {
	r        *rng.RNG
	monitors map[string]*modelMonitor
	// refused is set after a write the control refused with a 4xx: the
	// next step is then more often a restart, which checks that the
	// refusal left nothing behind that the log does not hold.
	refused bool
}

var modelIDs = []string{"m0", "m1", "m2"}

const (
	transcriptSteps = 64
	restartPercent  = 8
)

// checkSeed generates and runs one transcript. On a disagreement it
// shrinks the transcript and fails with the literal.
func checkSeed(tb testing.TB, seed uint64) {
	tb.Helper()
	g := &generator{r: rng.New(seed), monitors: map[string]*modelMonitor{}}
	tr := transcript{snapInterval: snapshotIntervals[seed%uint64(len(snapshotIntervals))]}
	tw := newTwin(tb, tr.snapInterval)
	for i := 0; i < transcriptSteps; i++ {
		s, id, m := g.next()
		tr.steps = append(tr.steps, s)
		code, msg := tw.do(s)
		if msg != "" {
			small := shrink(tb, tr)
			tb.Fatalf("seed %d, step %d: %s\nshrunk to %d of %d steps (%s); replay it from transcriptRegressions:\n%s",
				seed, i, msg, len(small.steps), len(tr.steps), replay(tb, small), small.literal())
		}
		g.learn(s, id, m, code)
	}
}

// next draws one step. It also returns the monitor id the step targets
// and, for a PUT, the model of the monitor it would create.
func (g *generator) next() (step, string, *modelMonitor) {
	r := g.r
	if r.Intn(100) < restartPercent || g.refused && r.Intn(3) == 0 {
		if r.Intn(3) == 0 {
			return step{Method: "RESTART", Path: "clean"}, "", nil
		}
		return step{Method: "RESTART", Path: "abrupt"}, "", nil
	}
	k := r.Intn(100)
	id := g.pick(k >= 43 && k < 65)
	m := g.monitors[id]
	base := "/v1/monitors/" + id
	switch {
	case k < 6 || m == nil && k < 40:
		body, mm := g.spec()
		return step{Method: http.MethodPut, Path: base, Body: body}, id, mm
	case k < 9:
		return step{Method: http.MethodDelete, Path: base}, id, nil
	case k < 37:
		return g.observe(base, m), id, nil
	case k < 43 || k < 65 && (m == nil || !m.plan) && g.r.Intn(4) != 0:
		return g.repair(base), id, nil
	case k < 65:
		return g.decide(base, m), id, nil
	case k < 77:
		return g.report(base, m), id, nil
	case k < 81:
		return step{Method: http.MethodGet, Path: base}, id, nil
	case k < 84:
		return step{Method: http.MethodGet, Path: "/v1/monitors"}, id, nil
	default:
		return g.bad(base), id, nil
	}
}

// pick draws a monitor id: mostly a registered one, and for a decide
// mostly one with a plan, so that most steps reach the write path.
func (g *generator) pick(decide bool) string {
	var live, planned []string
	for _, id := range modelIDs {
		if m := g.monitors[id]; m != nil {
			live = append(live, id)
			if m.plan {
				planned = append(planned, id)
			}
		}
	}
	switch k := g.r.Intn(10); {
	case decide && len(planned) > 0 && k < 8:
		return planned[g.r.Intn(len(planned))]
	case len(live) > 0 && k < 8:
		return live[g.r.Intn(len(live))]
	}
	return modelIDs[g.r.Intn(len(modelIDs))]
}

// learn updates the model from the control server's status for s.
func (g *generator) learn(s step, id string, mm *modelMonitor, status int) {
	g.refused = s.Method != http.MethodGet && status >= 400 && status < 500
	switch {
	case s.Method == http.MethodPut && (status == http.StatusCreated || status == http.StatusOK):
		g.monitors[id] = mm
	case s.Method == http.MethodDelete && status == http.StatusNoContent:
		delete(g.monitors, id)
	case strings.HasSuffix(s.Path, "/repair") && status == http.StatusOK:
		g.monitors[id].plan = true
	}
}

// spec draws a monitor configuration: every policy, with and without a
// threshold and metric limits.
func (g *generator) spec() (string, *modelMonitor) {
	r := g.r
	mm := &modelMonitor{groups: 1}
	var attrs []string
	for a, n := 0, 1+r.Intn(2); a < n; a++ {
		vals := []string{"x", "y", "z"}[:2+r.Intn(2)]
		mm.attrs = append(mm.attrs, vals)
		mm.groups *= len(vals)
		attrs = append(attrs, fmt.Sprintf(`{"name": "a%d", "values": ["%s"]}`, a, strings.Join(vals, `", "`)))
	}
	mm.outcomes = []string{"deny", "approve"}
	if r.Intn(5) == 0 {
		mm.outcomes = append(mm.outcomes, "defer")
	}
	var policy string
	switch r.Intn(3) {
	case 0:
		mm.window = true
		policy = fmt.Sprintf(`"window": {"size": %d}`, []int{8, 30, 100}[r.Intn(3)])
	case 1:
		mm.window = true
		b := []int{2, 4}[r.Intn(2)]
		policy = fmt.Sprintf(`"window": {"size": %d, "buckets": %d}`, b*[]int{3, 10, 25}[r.Intn(3)], b)
	default:
		policy = fmt.Sprintf(`"half_life": %d`, []int{5, 20, 100}[r.Intn(3)])
	}
	var extra string
	if r.Intn(2) == 0 {
		extra += fmt.Sprintf(`, "threshold": %g, "min_effective": %d`, []float64{0.3, 0.8, 1.5}[r.Intn(3)], []int{0, 4}[r.Intn(2)])
	}
	switch r.Intn(3) {
	case 0:
		extra += `, "metrics": [{"key": "worst_ratio", "threshold": 0.8}]`
	case 1:
		extra += `, "metrics": [{"key": "worst_gap", "threshold": 0.2}, {"key": "alpha_if", "threshold": 0.5}]`
	}
	body := fmt.Sprintf(`{"space": [%s], "outcomes": ["%s"], %s, "alpha": %g%s}`,
		strings.Join(attrs, ", "), strings.Join(mm.outcomes, `", "`), policy, []float64{0, 0.5, 1}[r.Intn(3)], extra)
	return body, mm
}

// pairs draws a batch of (group, outcome) pairs with group-dependent
// rates, so that monitors see disparities, alerts fire and plans have
// work to do. Unless all is set, three batches in four leave out the
// last group, so that some plans do not cover it and a decide batch
// naming it is refused after its shape check: the case where a refused
// batch must claim no decide tickets.
func (g *generator) pairs(m *modelMonitor, outcomes int, all bool) ([]int, []int) {
	r := g.r
	n := 1 + r.Intn(24)
	span := m.groups
	if !all && span > 1 && r.Intn(4) != 0 {
		span--
	}
	groups, ys := make([]int, n), make([]int, n)
	for i := range groups {
		groups[i] = r.Intn(span)
		if r.Float64() < 0.15+0.7*float64(groups[i])/float64(m.groups) {
			ys[i] = 1
		} else if outcomes > 2 && r.Intn(3) == 0 {
			ys[i] = 2
		}
	}
	return groups, ys
}

// observe draws an observe batch in one of the three encodings: JSON
// index arrays, JSON named observations, or application/x-df-batch.
func (g *generator) observe(base string, m *modelMonitor) step {
	if m == nil {
		return step{Method: http.MethodPost, Path: base + "/observe", Body: `{"groups": [0], "outcomes": [1]}`}
	}
	groups, ys := g.pairs(m, len(m.outcomes), false)
	s := step{Method: http.MethodPost, Path: base + "/observe"}
	switch g.r.Intn(3) {
	case 0:
		s.Body = string(loadgen.AppendJSONObserve(nil, groups, ys))
	case 1:
		obs := make([]string, min(len(groups), 12))
		for i := range obs {
			var kv []string
			rest := groups[i]
			for a := len(m.attrs) - 1; a >= 0; a-- {
				kv = append(kv, fmt.Sprintf(`"a%d": "%s"`, a, m.attrs[a][rest%len(m.attrs[a])]))
				rest /= len(m.attrs[a])
			}
			obs[i] = fmt.Sprintf(`{"group": {%s}, "outcome": "%s"}`, strings.Join(kv, ", "), m.outcomes[ys[i]])
		}
		s.Body = `{"observations": [` + strings.Join(obs, ", ") + `]}`
	default:
		s.ContentType = batchContentType
		s.Body = string(loadgen.AppendBinaryBatch(nil, groups, ys))
	}
	return s
}

// repair draws a plan install.
func (g *generator) repair(base string) step {
	r := g.r
	body := fmt.Sprintf(`{"target_epsilon": %g, "seed": %d, "auto_refresh": %t`,
		[]float64{0.2, 0.5, 1}[r.Intn(3)], r.Intn(5), r.Intn(2) == 0)
	if r.Intn(4) == 0 {
		body += `, "no_leveling_down": true`
	}
	return step{Method: http.MethodPost, Path: base + "/repair", Body: body + "}"}
}

// decide draws a decide batch, JSON or binary.
func (g *generator) decide(base string, m *modelMonitor) step {
	s := step{Method: http.MethodPost, Path: base + "/decide"}
	if m == nil {
		s.Body = `{"groups": [0], "decisions": [1]}`
		return s
	}
	groups, ys := g.pairs(m, 2, g.r.Intn(3) == 0)
	if g.r.Intn(3) == 0 {
		s.ContentType = batchContentType
		s.Body = string(loadgen.AppendBinaryBatch(nil, groups, ys))
		return s
	}
	s.Body = strings.Replace(string(loadgen.AppendJSONObserve(nil, groups, ys)), `"outcomes"`, `"decisions"`, 1)
	return s
}

// report draws a report query, raw or served, with a fixed seed and
// small interval sections.
func (g *generator) report(base string, m *modelMonitor) step {
	r := g.r
	q := "?seed=" + strconv.Itoa(1+r.Intn(3))
	if r.Intn(3) == 0 {
		q += "&stream=served"
	}
	if r.Intn(3) == 0 {
		q += "&credible=16"
	}
	if m != nil && m.window && r.Intn(3) == 0 {
		q += "&bootstrap=16"
	}
	if r.Intn(3) == 0 {
		q += "&metrics=worst_gap,alpha_if"
	}
	if r.Intn(5) == 0 {
		q += "&subsets=false"
	}
	return step{Method: http.MethodGet, Path: base + "/report" + q}
}

// bad draws a request the server must refuse.
func (g *generator) bad(base string) step {
	switch g.r.Intn(9) {
	case 0:
		return step{Method: http.MethodPost, Path: base + "/observe", Body: `{"groups": [0,`}
	case 1:
		return step{Method: http.MethodPost, Path: base + "/observe", Body: `{"groups": [0, 99], "outcomes": [1, 0]}`}
	case 2:
		return step{Method: http.MethodPost, Path: base + "/observe", ContentType: batchContentType,
			Body: string(loadgen.AppendBinaryBatch(nil, []int{0}, []int{7}))}
	case 3:
		return step{Method: http.MethodPut, Path: base, Body: `{"space": [{"name": "g", "values": ["a", "b"]}],
			"outcomes": ["n", "y"], "half_life": 10, "window": {"size": 10}}`}
	case 4:
		return step{Method: http.MethodPut, Path: "/v1/monitors/bad~id", Body: `{}`}
	case 5:
		return step{Method: http.MethodGet, Path: base + "/report?seed=x"}
	case 6:
		return step{Method: http.MethodPost, Path: base + "/decide", Body: `{"groups": [0], "decisions": [5]}`}
	case 7:
		return step{Method: http.MethodGet, Path: "/v1/monitors/m9/report"}
	default:
		return step{Method: http.MethodPost, Path: base + "/observe",
			Body: `{"groups": [` + strings.Repeat("0,", 1100) + `0], "outcomes": []}`}
	}
}

// TestModelTranscripts runs seeded transcripts, cycling through the
// snapshot intervals, against a durable server and its control.
func TestModelTranscripts(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		checkSeed(t, seed)
	}
}

// FuzzTranscript seeds the transcript generator with the fuzzer's input.
func FuzzTranscript(f *testing.F) {
	f.Add(uint64(1000))
	f.Fuzz(func(t *testing.T, seed uint64) { checkSeed(t, seed) })
}

// transcriptRegressions holds shrunk transcripts that failed once, or
// would fail if a fix were undone. The first was shrunk against a
// handleDecide that claimed its tickets before the applier's check: the
// refused decide at step 3 must claim nothing, or after the abrupt
// restart the next decide draws from other substreams than on the
// control.
var transcriptRegressions = []transcript{
	{snapInterval: 3, steps: []step{
		{"PUT", "/v1/monitors/m0", "", "{\"space\": [{\"name\": \"a0\", \"values\": [\"x\", \"y\"]}, {\"name\": \"a1\", \"values\": [\"x\", \"y\", \"z\"]}], \"outcomes\": [\"deny\", \"approve\"], \"half_life\": 5, \"alpha\": 1}"},
		{"POST", "/v1/monitors/m0/observe", "", "{\"groups\":[3,4,3,3,0,0,1,1,3,2],\"outcomes\":[1,1,1,1,0,0,0,0,1,0]}"},
		{"POST", "/v1/monitors/m0/repair", "", "{\"target_epsilon\": 0.5, \"seed\": 0, \"auto_refresh\": false}"},
		{"POST", "/v1/monitors/m0/decide", "", "{\"groups\":[5,1,2,1,3,1,2,2,5,3,3,3,0,5],\"decisions\":[1,0,1,0,0,0,1,1,1,1,1,1,0,1]}"},
		{"RESTART", "abrupt", "", ""},
		{"POST", "/v1/monitors/m0/decide", "", "{\"groups\":[0,0,1,2,3,3,2,3,1,4,0,0,3,2],\"decisions\":[0,1,1,1,0,1,0,1,0,1,0,0,0,1]}"},
	}},
}

// TestTranscriptRegressions replays the shrunk transcripts.
func TestTranscriptRegressions(t *testing.T) {
	for i, tr := range transcriptRegressions {
		if msg := replay(t, tr); msg != "" {
			t.Errorf("transcript %d: %s", i, msg)
		}
	}
}
