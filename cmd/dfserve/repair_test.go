package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	fairness "repro"
	"repro/internal/datasets"
	"repro/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// expandAdmissions unrolls the admissions table, scaled by the given
// factor, into parallel group/outcome index arrays, deterministically
// shuffled so any contiguous slice (a decide batch, a sliding window's
// surviving tail) is a representative sample of the whole stream.
// Scaling preserves every rate (and therefore ε = 1.511) while
// shrinking the sampling noise of realized repaired windows.
func expandAdmissions(scale int) (groups, outcomes []int) {
	c := datasets.Admissions()
	for g := 0; g < c.Space().Size(); g++ {
		for y := 0; y < c.NumOutcomes(); y++ {
			for k := 0; k < scale*int(c.N(g, y)); k++ {
				groups = append(groups, g)
				outcomes = append(outcomes, y)
			}
		}
	}
	r := rng.New(42)
	r.Shuffle(len(groups), func(i, j int) {
		groups[i], groups[j] = groups[j], groups[i]
		outcomes[i], outcomes[j] = outcomes[j], outcomes[i]
	})
	return groups, outcomes
}

func admissionsMonitorSpec(window string, threshold float64) string {
	return fmt.Sprintf(`{
  "space": [{"name": "gender", "values": ["A", "B"]}, {"name": "race", "values": ["1", "2"]}],
  "outcomes": ["decline", "admit"],
  "window": %s,
  "alpha": 0,
  "threshold": %g,
  "min_effective": 100
}`, window, threshold)
}

// splitStream carves parallel index arrays into a representative
// quarter (positions ≡ 0 mod 4) and the remaining three quarters.
func splitStream(groups, outcomes []int) (g1, o1, g2, o2 []int) {
	for i := range groups {
		if i%4 == 0 {
			g1 = append(g1, groups[i])
			o1 = append(o1, outcomes[i])
		} else {
			g2 = append(g2, groups[i])
			o2 = append(o2, outcomes[i])
		}
	}
	return
}

type transcriptStep struct {
	Step     string          `json:"step"`
	Method   string          `json:"method"`
	Path     string          `json:"path"`
	Status   int             `json:"status"`
	Request  json.RawMessage `json:"request,omitempty"`
	Response json.RawMessage `json:"response"`
}

// TestGoldenClosedLoopTranscript drives the full closed loop against one
// server — admissions ingest → threshold alert → plan install →
// decide batches (tripping auto-refresh) → final report — and checks the
// entire HTTP transcript byte-for-byte against
// testdata/repair_loop.json. Every response is deterministic in the
// request sequence and seed ("inf" ε values ride on the JSONFloat
// convention), so the transcript doubles as schema documentation.
// Regenerate with: go test ./cmd/dfserve -run Golden -update
func TestGoldenClosedLoopTranscript(t *testing.T) {
	srv := testServer(t)
	var transcript []transcriptStep

	do := func(step, method, path, body string, wantStatus int) []byte {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = bytes.NewReader([]byte(body))
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		respBody, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status = %d, want %d: %s", step, resp.StatusCode, wantStatus, respBody)
		}
		st := transcriptStep{Step: step, Method: method, Path: path,
			Status: resp.StatusCode, Response: json.RawMessage(respBody)}
		if body != "" {
			st.Request = json.RawMessage(body)
		}
		transcript = append(transcript, st)
		return respBody
	}

	groups, outcomes := expandAdmissions(4)
	jg, _ := json.Marshal(groups)
	jo, _ := json.Marshal(outcomes)

	// 1. A sliding-window monitor covering the most recent 2800
	// decisions in 400-decision buckets, alerting above ε = 0.8: served
	// repairs evict the unfair history instead of averaging against it
	// forever.
	do("create-monitor", http.MethodPut, "/v1/monitors/admissions",
		admissionsMonitorSpec(`{"size": 2800, "buckets": 7}`, 0.8), http.StatusCreated)

	// 2. Ingest the original decision stream; the paper's ε = 1.511
	// trips the watch.
	obsResp := do("ingest-original", http.MethodPost, "/v1/monitors/admissions/observe",
		fmt.Sprintf(`{"groups": %s, "outcomes": %s}`, jg, jo), http.StatusOK)
	var obs observeResponse
	if err := json.Unmarshal(obsResp, &obs); err != nil {
		t.Fatal(err)
	}
	if obs.Alert == nil {
		t.Fatal("admissions ingest did not trip the eps=0.8 watch")
	}

	// 3. Compute and install a repair plan to ε = 0.5 from the live
	// window, arming auto-refresh.
	repResp := do("install-plan", http.MethodPost, "/v1/monitors/admissions/repair",
		`{"target_epsilon": 0.5, "seed": 1, "auto_refresh": true}`, http.StatusOK)
	var install struct {
		PlanVersion int                  `json:"plan_version"`
		Alert       *alertReport         `json:"alert"`
		Plan        *fairness.RepairPlan `json:"plan"`
	}
	if err := json.Unmarshal(repResp, &install); err != nil {
		t.Fatal(err)
	}
	if install.PlanVersion != 1 || install.Plan == nil {
		t.Fatalf("unexpected install response: %s", repResp)
	}
	if install.Alert == nil {
		t.Error("install response did not confirm the breach that motivated it")
	}
	if got := float64(install.Plan.AchievedEpsilon); got > 0.5+1e-9 {
		t.Errorf("plan achieves eps %v, target 0.5", got)
	}

	// 4. Serve a representative quarter of the proposed decisions
	// through the plan. Raw proposals keep feeding the monitor — the
	// mechanism is still biased, so the per-batch check stays in breach
	// and auto-refresh recomputes the plan from the raw window.
	g1, o1, g2, o2 := splitStream(groups, outcomes)
	jg1, _ := json.Marshal(g1)
	jo1, _ := json.Marshal(o1)
	jg2, _ := json.Marshal(g2)
	jo2, _ := json.Marshal(o2)
	dec1 := do("decide-replay-1", http.MethodPost, "/v1/monitors/admissions/decide",
		fmt.Sprintf(`{"groups": %s, "decisions": %s}`, jg1, jo1), http.StatusOK)
	var d1 decideResponse
	if err := json.Unmarshal(dec1, &d1); err != nil {
		t.Fatal(err)
	}
	if d1.PlanVersion != 1 || d1.Changed <= 0 || d1.ServedSeen != len(g1) {
		t.Fatalf("decide 1: %+v", d1)
	}
	if d1.Alert == nil || !d1.PlanRefreshed || d1.NewPlanVersion != 2 {
		t.Fatalf("decide 1 did not auto-refresh: %s", dec1)
	}

	// 5. The remaining three quarters are served by the refreshed plan
	// (version 2). The raw stream is still in breach — the gateway
	// repairs the output, it cannot fix the mechanism — so the alert
	// fires again and the plan refreshes once more.
	dec2 := do("decide-replay-2", http.MethodPost, "/v1/monitors/admissions/decide",
		fmt.Sprintf(`{"groups": %s, "decisions": %s}`, jg2, jo2), http.StatusOK)
	var d2 decideResponse
	if err := json.Unmarshal(dec2, &d2); err != nil {
		t.Fatal(err)
	}
	if d2.PlanVersion != 2 {
		t.Fatalf("decide 2 used plan version %d", d2.PlanVersion)
	}
	if d2.Alert == nil || !d2.PlanRefreshed || d2.NewPlanVersion != 3 {
		t.Fatalf("decide 2 raw-stream alerting broke: %s", dec2)
	}

	// 6. The served-stream report proves the gateway's output is
	// repaired: every decision in the served window went through a plan,
	// so its ε sits near the 0.5 target — far under the raw 1.511.
	servedRaw := do("served-report", http.MethodGet,
		"/v1/monitors/admissions/report?stream=served&subsets=true", "", http.StatusOK)
	var servedReport fairness.Report
	if err := json.Unmarshal(servedRaw, &servedReport); err != nil {
		t.Fatal(err)
	}
	if got := float64(servedReport.Epsilon); got >= 0.8 {
		t.Errorf("served stream not repaired: eps %v", got)
	}

	// 7. The raw report still shows the unfair mechanism — the honest
	// contrast that motivates fixing the model itself (§3.2).
	rawRaw := do("raw-report", http.MethodGet,
		"/v1/monitors/admissions/report", "", http.StatusOK)
	var rawReport fairness.Report
	if err := json.Unmarshal(rawRaw, &rawReport); err != nil {
		t.Fatal(err)
	}
	if got := float64(rawReport.Epsilon); got < 1.4 {
		t.Errorf("raw stream unexpectedly repaired: eps %v", got)
	}

	// 8. The monitor's stats reflect both streams and the plan version.
	statsRaw := do("monitor-stats", http.MethodGet, "/v1/monitors/admissions", "", http.StatusOK)
	var stats monitorStats
	if err := json.Unmarshal(statsRaw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanVersion != 3 || stats.Seen != 2*len(groups) || stats.ServedSeen != len(groups) {
		t.Fatalf("stats = %+v", stats)
	}

	got, err := json.MarshalIndent(transcript, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "repair_loop.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./cmd/dfserve -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("closed-loop transcript diverged from %s (regenerate with -update if intended)", path)
	}
}

// TestRepairStateless exercises POST /v1/repair: a counts-form request
// returns the same plan fairness.NewRepairer computes in process.
func TestRepairStateless(t *testing.T) {
	srv := testServer(t)
	counts := datasets.Admissions()
	rows := make([][]float64, counts.Space().Size())
	for g := range rows {
		row := make([]float64, counts.NumOutcomes())
		for y := range row {
			row[y] = counts.N(g, y)
		}
		rows[g] = row
	}
	body, _ := json.Marshal(map[string]any{
		"space": []map[string]any{
			{"name": "gender", "values": []string{"A", "B"}},
			{"name": "race", "values": []string{"1", "2"}},
		},
		"outcomes": []string{"decline", "admit"},
		"counts":   rows,
		"options":  map[string]any{"target_epsilon": 0.5, "seed": 3},
	})
	resp, err := http.Post(srv.URL+"/v1/repair", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got fairness.RepairPlan
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	rep, err := fairness.NewRepairer(counts.Space(), counts.Outcomes(),
		fairness.WithTargetEpsilon(0.5), fairness.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.Plan(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := want.RenderJSON(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, wantBuf.Bytes()) {
		t.Fatalf("service plan diverged from in-process plan:\n%s\nvs\n%s", raw, wantBuf.Bytes())
	}
}

func TestRepairAndDecideBadRequests(t *testing.T) {
	srv := testServer(t)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Stateless repair.
	if got := post("/v1/repair", `{nope`); got != http.StatusBadRequest {
		t.Errorf("malformed repair body: %d", got)
	}
	okSpace := `"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["no", "yes"], "counts": [[5, 5], [2, 8]]`
	if got := post("/v1/repair", `{`+okSpace+`}`); got != http.StatusBadRequest {
		t.Errorf("missing target_epsilon: %d", got)
	}
	if got := post("/v1/repair", `{`+okSpace+`, "options": {"target_epsilon": -1}}`); got != http.StatusBadRequest {
		t.Errorf("negative target: %d", got)
	}
	if got := post("/v1/repair", `{`+okSpace+`, "options": {"target_epsilon": 0.5, "max_movement": 7}}`); got != http.StatusBadRequest {
		t.Errorf("bad movement cap: %d", got)
	}
	// Degenerate counts plan at the service boundary: 422, not 500.
	degenerate := `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["no", "yes"],
		"counts": [[0, 0], [2, 8]], "options": {"target_epsilon": 0.5}}`
	if got := post("/v1/repair", degenerate); got != http.StatusUnprocessableEntity {
		t.Errorf("degenerate counts: %d", got)
	}

	// Monitor repair/decide preconditions.
	if got := post("/v1/monitors/none/repair", `{"target_epsilon": 0.5}`); got != http.StatusNotFound {
		t.Errorf("repair on missing monitor: %d", got)
	}
	if got := post("/v1/monitors/none/decide", `{"groups": [0], "decisions": [1]}`); got != http.StatusNotFound {
		t.Errorf("decide on missing monitor: %d", got)
	}
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/monitors/m",
		bytes.NewReader([]byte(`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["no", "yes"], "window": {"size": 1000}}`)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("monitor create: %d", resp.StatusCode)
	}
	if got := post("/v1/monitors/m/decide", `{"groups": [0], "decisions": [1]}`); got != http.StatusConflict {
		t.Errorf("decide without a plan: %d", got)
	}
	if got := post("/v1/monitors/m/repair", `{"target_epsilon": 0.5}`); got != http.StatusUnprocessableEntity {
		t.Errorf("repair on empty monitor: %d", got)
	}
	// Populate and install, then decide validation errors.
	if got := post("/v1/monitors/m/observe", `{"groups": [0,0,0,1,1,1,0,1], "outcomes": [1,1,0,0,0,1,1,0]}`); got != http.StatusOK {
		t.Fatalf("observe: %d", got)
	}
	if got := post("/v1/monitors/m/repair", `{"target_epsilon": 0.5, "min_effective": 1}`); got != http.StatusBadRequest {
		t.Errorf("unknown repair field: %d", got)
	}
	if got := post("/v1/monitors/m/repair", `{"target_epsilon": 0.5}`); got != http.StatusOK {
		t.Errorf("repair install: %d", got)
	}
	for name, body := range map[string]string{
		"malformed":        `{"groups": [0`,
		"empty batch":      `{"groups": [], "decisions": []}`,
		"length mismatch":  `{"groups": [0, 1], "decisions": [1]}`,
		"group range":      `{"groups": [9], "decisions": [1]}`,
		"ternary decision": `{"groups": [0], "decisions": [2]}`,
		"unknown field":    `{"groups": [0], "decisions": [1], "window": 3}`,
		"null group":       `{"groups": [0, null], "decisions": [1, 1]}`,
		"null decision":    `{"groups": [0, 1], "decisions": [1, null]}`,
		"trailing value":   `{"groups": [0], "decisions": [1]}{"groups": [1], "decisions": [0]}`,
	} {
		if got := post("/v1/monitors/m/decide", body); got != http.StatusBadRequest {
			t.Errorf("decide %s: %d", name, got)
		}
	}
}

// TestDecideConcurrentExactCounts is the -race stress test of the
// decide path: many goroutines hammer one monitor with decide batches
// (auto-refresh armed so plan swaps race the appliers) and the monitor's
// final counts must account for every decision exactly once, with every
// response internally consistent.
func TestDecideConcurrentExactCounts(t *testing.T) {
	srv := testServer(t)
	put := func(path, body string, want int) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, srv.URL+path, bytes.NewReader([]byte(body)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("PUT %s: %d", path, resp.StatusCode)
		}
	}
	put("/v1/monitors/stress", admissionsMonitorSpec(`{"size": 1048576}`, 1.2), http.StatusCreated)

	groups, outcomes := expandAdmissions(1)
	jg, _ := json.Marshal(groups)
	jo, _ := json.Marshal(outcomes)
	seedResp, err := http.Post(srv.URL+"/v1/monitors/stress/observe", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"groups": %s, "outcomes": %s}`, jg, jo))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, seedResp.Body)
	seedResp.Body.Close()
	if seedResp.StatusCode != http.StatusOK {
		t.Fatalf("seed observe: %d", seedResp.StatusCode)
	}
	instResp, err := http.Post(srv.URL+"/v1/monitors/stress/repair", "application/json",
		bytes.NewReader([]byte(`{"target_epsilon": 0.4, "auto_refresh": true}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, instResp.Body)
	instResp.Body.Close()
	if instResp.StatusCode != http.StatusOK {
		t.Fatalf("plan install: %d", instResp.StatusCode)
	}

	const (
		goroutines = 8
		batches    = 20
		batchLen   = 64
	)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bg := make([]int, batchLen)
			bd := make([]int, batchLen)
			for i := range bg {
				bg[i] = (w + i) % 4
				bd[i] = i % 2
			}
			body, _ := json.Marshal(decideRequest{Groups: bg, Decisions: bd})
			for b := 0; b < batches; b++ {
				resp, err := http.Post(srv.URL+"/v1/monitors/stress/decide",
					"application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("decide status %d: %s", resp.StatusCode, raw)
					return
				}
				var dr decideResponse
				if err := json.Unmarshal(raw, &dr); err != nil {
					errCh <- err
					return
				}
				if len(dr.Decisions) != batchLen || dr.Observed != batchLen {
					errCh <- fmt.Errorf("decide response shape: %+v", dr)
					return
				}
				diff := 0
				for i := range bd {
					if dr.Decisions[i] != bd[i] {
						diff++
					}
					if dr.Decisions[i] != 0 && dr.Decisions[i] != 1 {
						errCh <- fmt.Errorf("non-binary served decision %d", dr.Decisions[i])
						return
					}
				}
				if diff != dr.Changed {
					errCh <- fmt.Errorf("changed = %d but %d decisions differ", dr.Changed, diff)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/monitors/stress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats monitorStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	want := len(groups) + goroutines*batches*batchLen
	if stats.Seen != want {
		t.Fatalf("seen = %d, want exactly %d", stats.Seen, want)
	}
	if stats.EffectiveCount != float64(want) {
		t.Fatalf("effective_count = %v, want exactly %d", stats.EffectiveCount, want)
	}
	if stats.PlanVersion < 1 {
		t.Fatalf("plan version %d", stats.PlanVersion)
	}
}
