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
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	fairness "repro"
	"repro/internal/datasets"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newMux(serverConfig{workers: 0, maxBody: 32 << 20}))
	t.Cleanup(srv.Close)
	return srv
}

// admissionsRequest mirrors cmd/dfaudit's golden audit (-dataset
// admissions -bootstrap 100 -credible 100 -repair 0.5 -seed 1) as a
// counts-form service request; optional metric keys mirror -metrics.
func admissionsRequest(t *testing.T, metricKeys ...string) []byte {
	t.Helper()
	counts := datasets.Admissions()
	space := counts.Space()
	rows := make([][]float64, space.Size())
	for g := range rows {
		row := make([]float64, counts.NumOutcomes())
		for y := range row {
			row[y] = counts.N(g, y)
		}
		rows[g] = row
	}
	var attrs []attrSpec
	for _, a := range space.Attrs() {
		attrs = append(attrs, attrSpec{Name: a.Name, Values: a.Values})
	}
	seed := uint64(1)
	level := 0.95
	prior := 1.0
	body, err := json.Marshal(auditRequest{
		Space:    attrs,
		Outcomes: counts.Outcomes(),
		Counts:   rows,
		Options: auditOptions{
			Bootstrap:    &bootstrapSpec{Replicates: 100, Level: &level},
			Credible:     &credibleSpec{Samples: 100, PriorAlpha: &prior, Level: &level},
			RepairTarget: 0.5,
			Seed:         &seed,
			Metrics:      metricKeys,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), `"ok"`) {
		t.Errorf("body = %s", b)
	}
}

// TestAuditRoundTripMatchesDfauditGolden: the service must return
// byte-identical JSON to cmd/dfaudit -format json for the same inputs,
// options and seed — the two front ends share one report pipeline.
func TestAuditRoundTripMatchesDfauditGolden(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/audit", "application/json",
		bytes.NewReader(admissionsRequest(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	golden, err := os.ReadFile(filepath.Join("..", "dfaudit", "testdata", "admissions.json"))
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./cmd/dfaudit -update)", err)
	}
	if !bytes.Equal(body, golden) {
		t.Errorf("service JSON diverged from dfaudit golden:\n%s", body)
	}
}

func TestAuditObservationsForm(t *testing.T) {
	srv := testServer(t)
	req := map[string]any{
		"space":    []map[string]any{{"name": "gender", "values": []string{"F", "M"}}},
		"outcomes": []string{"deny", "approve"},
		"observations": []map[string]any{
			{"group": map[string]string{"gender": "F"}, "outcome": "deny"},
			{"group": map[string]string{"gender": "F"}, "outcome": "deny"},
			{"group": map[string]string{"gender": "F"}, "outcome": "approve"},
			{"group": map[string]string{"gender": "M"}, "outcome": "deny"},
			{"group": map[string]string{"gender": "M"}, "outcome": "approve"},
			{"group": map[string]string{"gender": "M"}, "outcome": "approve"},
		},
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/audit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	var rep map[string]any
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep["observations"].(float64) != 6 {
		t.Errorf("observations = %v", rep["observations"])
	}
	// P(approve|M)/P(approve|F) = (2/3)/(1/3): eps = ln 2.
	if eps := rep["epsilon"].(float64); eps < 0.69 || eps > 0.70 {
		t.Errorf("epsilon = %v, want ln 2", eps)
	}
}

func TestAuditBadRequests(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{`},
		{"unknown field", `{"bogus": 1}`},
		{"empty space", `{"space": [], "outcomes": ["a", "b"], "counts": [[1, 2]]}`},
		{"no data", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"]}`},
		{"both forms", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"counts": [[1, 2], [3, 4]],
			"observations": [{"group": {"g": "a"}, "outcome": "x"}]}`},
		{"wrong row count", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"], "counts": [[1, 2]]}`},
		{"wrong column count", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"], "counts": [[1], [2]]}`},
		{"unknown outcome", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"observations": [{"group": {"g": "a"}, "outcome": "zzz"}]}`},
		{"unknown attr value", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"observations": [{"group": {"g": "q"}, "outcome": "x"}]}`},
		{"bootstrap level out of range", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"counts": [[1, 2], [3, 4]], "options": {"bootstrap": {"replicates": 10, "level": 95}}}`},
		{"explicit zero level", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"counts": [[1, 2], [3, 4]], "options": {"bootstrap": {"replicates": 10, "level": 0}}}`},
		{"explicit zero prior alpha", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"counts": [[1, 2], [3, 4]], "options": {"credible": {"samples": 10, "prior_alpha": 0}}}`},
		{"negative alpha", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"counts": [[1, 2], [3, 4]], "options": {"alpha": -1}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/audit", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want 400: %s", resp.StatusCode, b)
			}
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e["error"] == "" {
				t.Error("error body missing")
			}
		})
	}
}

// TestAuditCancellation: a client that disconnects mid-bootstrap cancels
// the request context, and the in-flight audit stops promptly instead of
// finishing a multi-second resampling job for nobody.
func TestAuditCancellation(t *testing.T) {
	srv := testServer(t)
	counts := datasets.Admissions()
	space := counts.Space()
	rows := make([][]float64, space.Size())
	for g := range rows {
		row := make([]float64, counts.NumOutcomes())
		for y := range row {
			row[y] = counts.N(g, y)
		}
		rows[g] = row
	}
	var attrs []attrSpec
	for _, a := range space.Attrs() {
		attrs = append(attrs, attrSpec{Name: a.Name, Values: a.Values})
	}
	body, err := json.Marshal(auditRequest{
		Space:    attrs,
		Outcomes: counts.Outcomes(),
		Counts:   rows,
		Options: auditOptions{
			// Far more replicates than can finish before the cancel.
			Bootstrap: &bootstrapSpec{Replicates: 5_000_000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/audit", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	elapsed := time.Since(start)
	if err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("canceled request took %v, want prompt return", elapsed)
	}
}

// TestConcurrentAudits: per-request auditors over the shared engine must
// serve parallel clients with deterministic, identical results.
func TestConcurrentAudits(t *testing.T) {
	srv := testServer(t)
	body := admissionsRequest(t)
	const clients = 8
	results := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/audit", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d: %s", resp.StatusCode, b)
				return
			}
			results[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("client %d got a different report", i)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/audit status = %d, want 405", resp.StatusCode)
	}
}

func TestMaxResamplesLimit(t *testing.T) {
	srv := httptest.NewServer(newMux(serverConfig{workers: 0, maxBody: 32 << 20, maxResamples: 1000}))
	defer srv.Close()
	for _, body := range []string{
		`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"counts": [[1, 2], [3, 4]], "options": {"bootstrap": {"replicates": 2000000000}}}`,
		`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"counts": [[1, 2], [3, 4]], "options": {"credible": {"samples": 100000000}}}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/audit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("oversized fan-out status = %d, want 400: %s", resp.StatusCode, b)
		}
		if !strings.Contains(string(b), "limit") {
			t.Errorf("error does not mention the limit: %s", b)
		}
	}
	// At or under the cap still works.
	resp, err := http.Post(srv.URL+"/v1/audit", "application/json", strings.NewReader(
		`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"counts": [[10, 20], [30, 40]], "options": {"bootstrap": {"replicates": 1000}}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("at-limit request status = %d: %s", resp.StatusCode, b)
	}
}

func TestMaxBodyLimit(t *testing.T) {
	srv := httptest.NewServer(newMux(serverConfig{workers: 0, maxBody: 64}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/audit", "application/json",
		strings.NewReader(fmt.Sprintf(`{"space": [{"name": %q, "values": ["a", "b"]}]}`,
			strings.Repeat("x", 200))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}

	// The batch endpoints read their JSON bodies themselves: an
	// oversized observe or decide body is a 413 with a JSON error too.
	srv2 := httptest.NewServer(newMux(serverConfig{workers: 0, maxBody: 256}))
	defer srv2.Close()
	mustReq(t, srv2, http.MethodPut, "/v1/monitors/m",
		`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["no", "yes"], "window": {"size": 100}}`,
		http.StatusCreated)
	mustReq(t, srv2, http.MethodPost, "/v1/monitors/m/observe",
		`{"groups": [0, 0, 0, 1, 1, 1], "outcomes": [1, 1, 0, 0, 0, 1]}`, http.StatusOK)
	mustReq(t, srv2, http.MethodPost, "/v1/monitors/m/repair", `{"target_epsilon": 0.5}`, http.StatusOK)
	for _, path := range []string{"/v1/monitors/m/observe", "/v1/monitors/m/decide"} {
		body := fmt.Sprintf(`{"groups": [%s0], "outcomes": [1]}`, strings.Repeat("0, ", 100))
		if strings.HasSuffix(path, "decide") {
			body = strings.Replace(body, "outcomes", "decisions", 1)
		}
		code, out := doReq(t, srv2, http.MethodPost, path, body)
		var e map[string]string
		if code != http.StatusRequestEntityTooLarge || json.Unmarshal(out, &e) != nil || e["error"] == "" {
			t.Errorf("oversized %s: status %d, body %s; want 413 with a JSON error", path, code, out)
		}
	}
}

func putMonitor(t *testing.T, srv *httptest.Server, id, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/monitors/"+id, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestMonitorLifecycle(t *testing.T) {
	srv := testServer(t)
	cfg := `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["deny", "approve"],
		"half_life": 1000, "alpha": 1}`

	resp := putMonitor(t, srv, "hiring", cfg)
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d: %s", resp.StatusCode, b)
	}
	var stats map[string]any
	if err := json.Unmarshal(b, &stats); err != nil {
		t.Fatal(err)
	}
	if stats["id"] != "hiring" || stats["policy"] != "exponential(half_life=1000)" {
		t.Fatalf("stats = %s", b)
	}

	// Replacing resets and returns 200.
	resp = putMonitor(t, srv, "hiring", cfg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace status = %d", resp.StatusCode)
	}

	// A second monitor appears in the sorted list.
	resp = putMonitor(t, srv, "admissions", `{"space": [{"name": "g", "values": ["a", "b"]}],
		"outcomes": ["x", "y"], "window": {"size": 512, "buckets": 4}}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second create status = %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/v1/monitors")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var list struct {
		Monitors []map[string]any `json:"monitors"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Monitors) != 2 || list.Monitors[0]["id"] != "admissions" || list.Monitors[1]["id"] != "hiring" {
		t.Fatalf("list = %s", b)
	}
	if list.Monitors[0]["policy"] != "sliding(window=512,buckets=4)" {
		t.Fatalf("sliding policy label = %v", list.Monitors[0]["policy"])
	}

	// GET one, DELETE it, then 404.
	resp, err = http.Get(srv.URL + "/v1/monitors/admissions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/monitors/admissions", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/monitors/admissions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete status = %d", resp.StatusCode)
	}
}

func TestMonitorPutValidation(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name, id, body string
	}{
		{"bad id", "bad*id", `{}`},
		{"no policy", "m", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"]}`},
		{"both policies", "m", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"half_life": 10, "window": {"size": 8}}`},
		{"bad half life", "m", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"half_life": -5}`},
		{"bad window buckets", "m", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"window": {"size": 7, "buckets": 2}}`},
		{"single outcome", "m", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x"],
			"half_life": 10}`},
		{"empty space", "m", `{"space": [], "outcomes": ["x", "y"], "half_life": 10}`},
		{"unknown field", "m", `{"bogus": 1}`},
		{"bad threshold", "m", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"half_life": 10, "threshold": -1}`},
		{"trailing value", "m", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
			"half_life": 10} {"half_life": 20}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := putMonitor(t, srv, tc.id, tc.body)
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", resp.StatusCode, b)
			}
		})
	}
}

func TestMonitorLimits(t *testing.T) {
	// The cell cap counts shard replication, so size it relative to this
	// machine's shard count: the 2x2 monitor (4 logical cells) fits, the
	// 4-bucket sliding one (16 logical cells) does not.
	srv := httptest.NewServer(newMux(serverConfig{
		workers: 0, maxBody: 32 << 20, maxMonitors: 1,
		maxMonitorCells: 8 * fairness.MonitorShards(),
	}))
	defer srv.Close()
	small := `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"], "half_life": 10}`
	resp := putMonitor(t, srv, "one", small)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create status = %d", resp.StatusCode)
	}
	// Count limit: a second distinct monitor is refused, replacing is not.
	resp = putMonitor(t, srv, "two", small)
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("over-count status = %d: %s", resp.StatusCode, b)
	}
	resp = putMonitor(t, srv, "one", small)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace under count limit status = %d", resp.StatusCode)
	}
	// Cell limit: 2 groups x 2 outcomes x 4 buckets = 16 > 8.
	resp = putMonitor(t, srv, "one", `{"space": [{"name": "g", "values": ["a", "b"]}],
		"outcomes": ["x", "y"], "window": {"size": 8, "buckets": 4}}`)
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "limit") {
		t.Fatalf("over-cells status = %d: %s", resp.StatusCode, b)
	}
}

// TestOversizedSpacesAreBadRequests: a space or stored-cell count whose
// size overflows int is a 400 on PUT and on /v1/audit, with the flag
// defaults' caps. Unchecked, 62 or 63 binary attributes (or a sliding
// window of 2^59 buckets) wrapped a slice length and panicked the
// handler, and 64 wrapped the group count to 0 and built an empty
// monitor.
func TestOversizedSpacesAreBadRequests(t *testing.T) {
	srv := httptest.NewServer(newMux(serverConfig{
		workers: 1, maxBody: 32 << 20, maxResamples: 100_000,
		maxMonitors: 1024, maxMonitorCells: 1 << 20,
	}))
	defer srv.Close()
	binarySpace := func(p int) string {
		attrs := make([]string, p)
		for i := range attrs {
			attrs[i] = fmt.Sprintf(`{"name": "a%d", "values": ["0", "1"]}`, i)
		}
		return "[" + strings.Join(attrs, ", ") + "]"
	}
	type request struct{ method, path, body string }
	var cases []request
	for _, p := range []int{62, 63, 64} {
		cases = append(cases,
			request{http.MethodPut, "/v1/monitors/m", `{"space": ` + binarySpace(p) + `, "outcomes": ["x", "y"], "window": {"size": 64}}`},
			request{http.MethodPost, "/v1/audit", `{"space": ` + binarySpace(p) + `, "outcomes": ["x", "y"], "counts": [[1, 1], [1, 1]]}`})
	}
	cases = append(cases, request{http.MethodPut, "/v1/monitors/m", `{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"],
		"window": {"size": 576460752303423488, "buckets": 576460752303423488}}`})
	for i, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("case %d (%s %s): %v", i, tc.method, tc.path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d (%s %s): status = %d, want 400: %s", i, tc.method, tc.path, resp.StatusCode, b)
		}
	}
	if code, body := doReq(t, srv, http.MethodGet, "/v1/monitors", ""); code != http.StatusOK || !strings.Contains(string(body), `"monitors":[]`) {
		t.Fatalf("listing after the refused PUTs: %d %s", code, body)
	}
}

func TestMonitorObserveForms(t *testing.T) {
	srv := testServer(t)
	resp := putMonitor(t, srv, "m", `{"space": [{"name": "g", "values": ["a", "b"]}],
		"outcomes": ["deny", "approve"], "half_life": 1e9}`)
	resp.Body.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/monitors/m/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	// Named form.
	resp2, b := post(`{"observations": [
		{"group": {"g": "a"}, "outcome": "approve"},
		{"group": {"g": "b"}, "outcome": "deny"}]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("named observe status = %d: %s", resp2.StatusCode, b)
	}
	var or map[string]any
	if err := json.Unmarshal(b, &or); err != nil {
		t.Fatal(err)
	}
	if or["observed"].(float64) != 2 || or["seen"].(float64) != 2 {
		t.Fatalf("observe response = %s", b)
	}

	// Compact indexed form.
	resp2, b = post(`{"groups": [0, 1, 0], "outcomes": [1, 0, 1]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("indexed observe status = %d: %s", resp2.StatusCode, b)
	}
	if err := json.Unmarshal(b, &or); err != nil {
		t.Fatal(err)
	}
	if or["seen"].(float64) != 5 {
		t.Fatalf("seen = %v, want 5", or["seen"])
	}

	// Bad forms.
	for name, body := range map[string]string{
		"both forms":      `{"observations": [{"group": {"g": "a"}, "outcome": "deny"}], "groups": [0], "outcomes": [0]}`,
		"empty":           `{}`,
		"length mismatch": `{"groups": [0, 1], "outcomes": [0]}`,
		"bad index":       `{"groups": [7], "outcomes": [0]}`,
		"unknown outcome": `{"observations": [{"group": {"g": "a"}, "outcome": "zzz"}]}`,
		"unknown value":   `{"observations": [{"group": {"g": "q"}, "outcome": "deny"}]}`,
		"null group":      `{"groups": [0, null, 1], "outcomes": [1, 1, 1]}`,
		"null outcome":    `{"groups": [0, 1], "outcomes": [null, 1]}`,
		"trailing value":  `{"groups": [0], "outcomes": [1]}{"groups": [1], "outcomes": [0]}`,
		"trailing bytes":  `{"groups": [0], "outcomes": [1]} x`,
	} {
		resp3, b := post(body)
		if resp3.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400: %s", name, resp3.StatusCode, b)
		}
	}
	// A rejected batch must not advance the stream.
	resp2, b = post(`{"groups": [0], "outcomes": [1]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("final observe status = %d: %s", resp2.StatusCode, b)
	}
	json.Unmarshal(b, &or)
	if or["seen"].(float64) != 6 {
		t.Fatalf("seen = %v, want 6 (failed batches must not consume tickets)", or["seen"])
	}

	// Unknown monitor.
	resp4, err := http.Post(srv.URL+"/v1/monitors/ghost/observe", "application/json",
		strings.NewReader(`{"groups": [0], "outcomes": [0]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost monitor status = %d", resp4.StatusCode)
	}
}

func TestMonitorReportAndAlert(t *testing.T) {
	srv := testServer(t)
	// Tumbling window keeps counts integral, so the bootstrap applies;
	// threshold 0.5 with min_effective 10 arms alerting.
	resp := putMonitor(t, srv, "live", `{"space": [{"name": "g", "values": ["a", "b"]}],
		"outcomes": ["deny", "approve"], "window": {"size": 100000}, "threshold": 0.5, "min_effective": 10}`)
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status = %d: %s", resp.StatusCode, b)
	}

	// Heavily biased batch: a approved 3/4, b approved 1/4.
	var groups, outcomes []int
	for i := 0; i < 200; i++ {
		groups = append(groups, i%2)
		if i%2 == 0 {
			outcomes = append(outcomes, boolToInt(i%8 != 0))
		} else {
			outcomes = append(outcomes, boolToInt(i%8 == 1))
		}
	}
	body, _ := json.Marshal(map[string]any{"groups": groups, "outcomes": outcomes})
	resp2, err := http.Post(srv.URL+"/v1/monitors/live/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("observe status = %d: %s", resp2.StatusCode, b)
	}
	var or struct {
		Seen  int `json:"seen"`
		Alert *struct {
			Epsilon      float64 `json:"epsilon"`
			Threshold    float64 `json:"threshold"`
			MostFavored  string  `json:"most_favored"`
			LeastFavored string  `json:"least_favored"`
		} `json:"alert"`
	}
	if err := json.Unmarshal(b, &or); err != nil {
		t.Fatal(err)
	}
	if or.Alert == nil {
		t.Fatalf("no alert on a biased stream: %s", b)
	}
	if or.Alert.Epsilon <= or.Alert.Threshold || or.Alert.MostFavored == "" {
		t.Fatalf("alert = %+v", or.Alert)
	}

	// Full report with bootstrap (integral window counts) and a seed.
	resp3, err := http.Get(srv.URL + "/v1/monitors/live/report?bootstrap=50&level=0.9&seed=7")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d: %s", resp3.StatusCode, b)
	}
	var rep map[string]any
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep["schema_version"].(float64) != 2 || rep["observations"].(float64) != 200 {
		t.Fatalf("report = %s", b)
	}
	if rep["bootstrap"] == nil {
		t.Fatalf("bootstrap section missing: %s", b)
	}
	// Invalid query parameters are 400s.
	for _, q := range []string{"?bootstrap=oops", "?credible=10&level=9", "?subsets=maybe"} {
		resp4, err := http.Get(srv.URL + "/v1/monitors/live/report" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp4.Body.Close()
		if resp4.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q status = %d, want 400", q, resp4.StatusCode)
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestAuditMetricsRoundTripMatchesDfauditGolden: the multi-metric
// service audit must be byte-identical to cmd/dfaudit -metrics for the
// same inputs, options and seed.
func TestAuditMetricsRoundTripMatchesDfauditGolden(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/audit", "application/json",
		bytes.NewReader(admissionsRequest(t, "worst_gap", "worst_ratio", "alpha_if")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	golden, err := os.ReadFile(filepath.Join("..", "dfaudit", "testdata", "admissions_metrics.json"))
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./cmd/dfaudit -update)", err)
	}
	if !bytes.Equal(body, golden) {
		t.Errorf("service multi-metric JSON diverged from dfaudit golden:\n%s", body)
	}
}

// TestMonitorMetricAlertAndSelector: per-metric thresholds arm alerting
// without an ε threshold, the alert names the breaching metric, and
// report?metrics= selects additional report sections.
func TestMonitorMetricAlertAndSelector(t *testing.T) {
	srv := testServer(t)
	resp := putMonitor(t, srv, "ratio", `{"space": [{"name": "g", "values": ["a", "b"]}],
		"outcomes": ["deny", "approve"], "window": {"size": 100000}, "min_effective": 10,
		"metrics": [{"key": "worst_ratio", "threshold": 0.8}]}`)
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status = %d: %s", resp.StatusCode, b)
	}
	var stats struct {
		Metrics []struct {
			Key       string  `json:"key"`
			Threshold float64 `json:"threshold"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Metrics) != 1 || stats.Metrics[0].Key != "worst_ratio" || stats.Metrics[0].Threshold != 0.8 {
		t.Fatalf("stats did not echo the metric thresholds: %s", b)
	}

	// An unknown metric key is rejected at PUT time.
	resp = putMonitor(t, srv, "bad", `{"space": [{"name": "g", "values": ["a", "b"]}],
		"outcomes": ["deny", "approve"], "window": {"size": 100000},
		"metrics": [{"key": "bogus", "threshold": 1}]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown metric key: put status = %d, want 400", resp.StatusCode)
	}

	// a approved 3/4 of the time, b 1/4: ratio 1/3, far below 0.8.
	var groups, outcomes []int
	for i := 0; i < 200; i++ {
		groups = append(groups, i%2)
		if i%2 == 0 {
			outcomes = append(outcomes, boolToInt(i%8 != 0))
		} else {
			outcomes = append(outcomes, boolToInt(i%8 == 1))
		}
	}
	body, _ := json.Marshal(map[string]any{"groups": groups, "outcomes": outcomes})
	resp2, err := http.Post(srv.URL+"/v1/monitors/ratio/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("observe status = %d: %s", resp2.StatusCode, b)
	}
	var or struct {
		Alert *struct {
			Metric    string  `json:"metric"`
			Epsilon   float64 `json:"epsilon"`
			Threshold float64 `json:"threshold"`
		} `json:"alert"`
	}
	if err := json.Unmarshal(b, &or); err != nil {
		t.Fatal(err)
	}
	if or.Alert == nil {
		t.Fatalf("no metric alert on a biased stream: %s", b)
	}
	if or.Alert.Metric != "worst_ratio" || or.Alert.Threshold != 0.8 || or.Alert.Epsilon >= 0.8 {
		t.Fatalf("alert = %+v, want worst_ratio below 0.8", or.Alert)
	}

	// metrics= adds per-metric report sections.
	resp3, err := http.Get(srv.URL + "/v1/monitors/ratio/report?metrics=worst_gap,alpha_if")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d: %s", resp3.StatusCode, b)
	}
	var rep struct {
		Metrics []struct {
			Key string `json:"key"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) != 2 || rep.Metrics[0].Key != "worst_gap" || rep.Metrics[1].Key != "alpha_if" {
		t.Fatalf("report metrics sections = %s", b)
	}
	// An unknown selector key is a client error.
	resp4, err := http.Get(srv.URL + "/v1/monitors/ratio/report?metrics=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("metrics=bogus status = %d, want 400", resp4.StatusCode)
	}
}

// TestMonitorObserveRaceStress is the registry's concurrency acceptance
// test (run under -race in CI): many goroutines hammer one monitor's
// observe endpoint while a reader polls its report, and the final
// effective counts are exact — the window policy's sums are
// order-independent, so the sharded engine must lose or duplicate
// nothing.
func TestMonitorObserveRaceStress(t *testing.T) {
	srv := testServer(t)
	resp := putMonitor(t, srv, "hot", `{"space": [{"name": "g", "values": ["a", "b"]}],
		"outcomes": ["deny", "approve"], "window": {"size": 1000000000}}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status = %d", resp.StatusCode)
	}

	// Every batch carries the same distribution: group a approves 2/3,
	// group b approves 1/3 — so the final ε is exactly ln 2 at any scale.
	batch, _ := json.Marshal(map[string]any{
		"groups":   []int{0, 0, 0, 1, 1, 1},
		"outcomes": []int{1, 1, 0, 0, 0, 1},
	})
	const workers = 8
	const batchesPerWorker = 30

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
			resp, err := http.Get(srv.URL + "/v1/monitors/hot/report")
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			// Mid-stream reports must be well-formed whenever 200 (a cold
			// table with one populated group is a legitimate 422).
			if resp.StatusCode == http.StatusOK {
				var rep map[string]any
				if err := json.Unmarshal(b, &rep); err != nil {
					t.Errorf("mid-stream report not JSON: %v", err)
					return
				}
			} else if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("mid-stream report status = %d: %s", resp.StatusCode, b)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batchesPerWorker; i++ {
				resp, err := http.Post(srv.URL+"/v1/monitors/hot/observe",
					"application/json", bytes.NewReader(batch))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("observe status = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	total := float64(workers * batchesPerWorker * 6)
	resp2, err := http.Get(srv.URL + "/v1/monitors/hot")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var stats struct {
		Seen           float64 `json:"seen"`
		EffectiveCount float64 `json:"effective_count"`
	}
	if err := json.Unmarshal(b, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Seen != total || stats.EffectiveCount != total {
		t.Fatalf("seen %v effective %v, want exactly %v", stats.Seen, stats.EffectiveCount, total)
	}

	resp3, err := http.Get(srv.URL + "/v1/monitors/hot/report")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("final report status = %d: %s", resp3.StatusCode, b)
	}
	var rep struct {
		Epsilon      float64 `json:"epsilon"`
		Observations float64 `json:"observations"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Observations != total {
		t.Fatalf("report observations %v, want %v", rep.Observations, total)
	}
	if want := math.Log(2); math.Abs(rep.Epsilon-want) > 1e-9 {
		t.Fatalf("final epsilon %v, want ln 2 = %v", rep.Epsilon, want)
	}
}

// TestMonitorAlertInfiniteEpsilon: an all-or-nothing disparity measures
// eps = +Inf; the alert must serialize it with the report schema's
// JSONFloat convention ("inf") instead of failing to encode.
func TestMonitorAlertInfiniteEpsilon(t *testing.T) {
	srv := testServer(t)
	resp := putMonitor(t, srv, "sharp", `{"space": [{"name": "g", "values": ["a", "b"]}],
		"outcomes": ["deny", "approve"], "half_life": 500, "threshold": 1.0}`)
	resp.Body.Close()
	// Group a always approved, group b always denied: empirical eps = +Inf.
	resp2, err := http.Post(srv.URL+"/v1/monitors/sharp/observe", "application/json",
		strings.NewReader(`{"groups": [0, 0, 1, 1], "outcomes": [1, 1, 0, 0]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("observe status = %d: %s", resp2.StatusCode, b)
	}
	var or struct {
		EffectiveCount *float64 `json:"effective_count"`
		Alert          *struct {
			Epsilon fairness.JSONFloat `json:"epsilon"`
		} `json:"alert"`
	}
	if err := json.Unmarshal(b, &or); err != nil {
		t.Fatalf("response not JSON (%v): %s", err, b)
	}
	if or.Alert == nil || !math.IsInf(float64(or.Alert.Epsilon), 1) {
		t.Fatalf("want an infinite-eps alert, got %s", b)
	}
	if or.EffectiveCount == nil {
		t.Fatalf("watched observe response missing effective_count: %s", b)
	}
}
