package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	fairness "repro"
	"repro/internal/loadgen"
)

// TestBatchContentTypeMatchesLoadgen pins the server's content-type
// constant to the client harness's: the two halves of the wire format
// live in different packages on purpose (the server must not depend on
// the load harness), so a test keeps them from drifting.
func TestBatchContentTypeMatchesLoadgen(t *testing.T) {
	if batchContentType != loadgen.BinaryContentType {
		t.Fatalf("server %q != loadgen %q", batchContentType, loadgen.BinaryContentType)
	}
}

// TestObserveRecordSplice: building the WAL record by splicing a client
// batch body is byte-identical to encoding it from the decoded arrays —
// the property that lets the binary observe path skip re-encoding.
func TestObserveRecordSplice(t *testing.T) {
	groups := []int{0, 3, 300, 1}
	outcomes := []int{1, 0, 1, 1}
	body := loadgen.AppendBinaryBatch(nil, groups, outcomes)
	spliced := encodeObserveRecordFromBatch("mon-1", body)
	direct := encodeObserveRecord("mon-1", groups, outcomes)
	if !bytes.Equal(spliced, direct) {
		t.Fatalf("spliced record diverges:\n spliced %x\n direct  %x", spliced, direct)
	}
}

func postBatch(t *testing.T, srv *httptest.Server, path, contentType string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

const batchTestMonitor = `{"space": [{"name": "g", "values": ["a", "b"]}, {"name": "h", "values": ["x", "y"]}],
	"outcomes": ["deny", "approve"], "window": {"size": 100000}, "alpha": 1}`

// TestBinaryObserveEquivalentToJSON ingests the same batch through both
// encodings into twin monitors and requires identical acknowledgments
// and identical reports.
func TestBinaryObserveEquivalentToJSON(t *testing.T) {
	srv := testServer(t)
	for _, id := range []string{"jsonway", "binway"} {
		resp := putMonitor(t, srv, id, batchTestMonitor)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: %d", id, resp.StatusCode)
		}
	}
	groups := []int{0, 0, 1, 2, 3, 3, 2, 1}
	outcomes := []int{1, 0, 1, 0, 0, 1, 1, 0}
	jsonBody := loadgen.AppendJSONObserve(nil, groups, outcomes)
	binBody := loadgen.AppendBinaryBatch(nil, groups, outcomes)
	for i := 0; i < 3; i++ {
		st, ackJSON := postBatch(t, srv, "/v1/monitors/jsonway/observe", "application/json", jsonBody)
		if st != http.StatusOK {
			t.Fatalf("json observe: %d: %s", st, ackJSON)
		}
		st, ackBin := postBatch(t, srv, "/v1/monitors/binway/observe", batchContentType, binBody)
		if st != http.StatusOK {
			t.Fatalf("binary observe: %d: %s", st, ackBin)
		}
		if !bytes.Equal(ackJSON, ackBin) {
			t.Fatalf("acks diverge:\n json   %s\n binary %s", ackJSON, ackBin)
		}
	}
	var reports [2][]byte
	for i, id := range []string{"jsonway", "binway"} {
		resp, err := srv.Client().Get(srv.URL + "/v1/monitors/" + id + "/report?seed=1")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %s: %d: %s", id, resp.StatusCode, buf.Bytes())
		}
		reports[i] = buf.Bytes()
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("reports diverge between JSON and binary ingest")
	}
}

// TestBinaryDecideEquivalentToJSON runs the closed loop under both
// encodings: same plan, same proposed batches, identical repaired
// decisions.
func TestBinaryDecideEquivalentToJSON(t *testing.T) {
	srv := testServer(t)
	for _, id := range []string{"jd", "bd"} {
		resp := putMonitor(t, srv, id, batchTestMonitor)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: %d", id, resp.StatusCode)
		}
		// Skewed seed data so the plan moves decisions.
		st, out := postBatch(t, srv, "/v1/monitors/"+id+"/observe", "application/json",
			[]byte(`{"groups": [0,0,0,0,1,2,3,3,3,3], "outcomes": [1,1,1,0,1,0,0,0,0,1]}`))
		if st != http.StatusOK {
			t.Fatalf("seed observe %s: %d: %s", id, st, out)
		}
		st, out = postBatch(t, srv, "/v1/monitors/"+id+"/repair", "application/json",
			[]byte(`{"target_epsilon": 0.3, "seed": 11}`))
		if st != http.StatusOK {
			t.Fatalf("repair %s: %d: %s", id, st, out)
		}
	}
	groups := []int{0, 1, 2, 3, 3, 0}
	decisions := []int{1, 1, 0, 0, 0, 1}
	jsonBody := loadgen.AppendJSONDecide(nil, groups, decisions)
	binBody := loadgen.AppendBinaryBatch(nil, groups, decisions)
	for i := 0; i < 4; i++ {
		st, respJSON := postBatch(t, srv, "/v1/monitors/jd/decide", "application/json", jsonBody)
		if st != http.StatusOK {
			t.Fatalf("json decide: %d: %s", st, respJSON)
		}
		st, respBin := postBatch(t, srv, "/v1/monitors/bd/decide", batchContentType, binBody)
		if st != http.StatusOK {
			t.Fatalf("binary decide: %d: %s", st, respBin)
		}
		if !bytes.Equal(respJSON, respBin) {
			t.Fatalf("decide responses diverge:\n json   %s\n binary %s", respJSON, respBin)
		}
	}
}

// TestBinaryObserveDurableRoundTrip commits binary batches through the
// WAL-splice path, kills the server, and requires the rebuilt registry
// to serve byte-identical views — proving a spliced record replays
// exactly like an encoded one.
func TestBinaryObserveDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, sv := durableServer(t, dir, 1<<30) // no snapshots: pure WAL replay
	mustReq(t, srv, http.MethodPut, "/v1/monitors/bin", batchTestMonitor, http.StatusCreated)
	groups := []int{0, 1, 2, 3, 1, 2}
	outcomes := []int{1, 0, 1, 0, 1, 1}
	binBody := loadgen.AppendBinaryBatch(nil, groups, outcomes)
	for i := 0; i < 5; i++ {
		if st, out := postBatch(t, srv, "/v1/monitors/bin/observe", batchContentType, binBody); st != http.StatusOK {
			t.Fatalf("binary observe: %d: %s", st, out)
		}
	}
	views := map[string][]byte{}
	for _, path := range []string{"/v1/monitors/bin", "/v1/monitors/bin/report?seed=3"} {
		views[path] = mustReq(t, srv, http.MethodGet, path, "", http.StatusOK)
	}
	srv.Close() // abrupt: no clean-shutdown snapshot
	_ = sv

	srv2, _ := durableServer(t, dir, 1<<30)
	for path, golden := range views {
		got := mustReq(t, srv2, http.MethodGet, path, "", http.StatusOK)
		if !bytes.Equal(got, golden) {
			t.Errorf("%s diverged after WAL replay:\n got: %s\nwant: %s", path, got, golden)
		}
	}
}

// TestBinaryBatchBadRequests: malformed binary bodies are 400s with the
// monitor untouched, and an oversized body (either encoding) is a 413.
func TestBinaryBatchBadRequests(t *testing.T) {
	srv := httptest.NewServer(newMux(serverConfig{workers: 1, maxBody: 256, maxMonitorCells: 1 << 20}))
	defer srv.Close()
	resp := putMonitor(t, srv, "m", batchTestMonitor)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d", resp.StatusCode)
	}

	ok := loadgen.AppendBinaryBatch(nil, []int{0, 1}, []int{1, 0})
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"empty body", nil, http.StatusBadRequest},
		{"zero count", []byte{0}, http.StatusBadRequest},
		{"count overstates pairs", []byte{9, 0, 1}, http.StatusBadRequest},
		{"truncated pair", ok[:len(ok)-1], http.StatusBadRequest},
		{"trailing bytes", append(append([]byte{}, ok...), 0), http.StatusBadRequest},
		{"group out of range", loadgen.AppendBinaryBatch(nil, []int{4}, []int{0}), http.StatusBadRequest},
		{"outcome out of range", loadgen.AppendBinaryBatch(nil, []int{0}, []int{2}), http.StatusBadRequest},
		{"oversized binary", loadgen.AppendBinaryBatch(nil, make([]int, 200), make([]int, 200)), http.StatusRequestEntityTooLarge},
		{"oversized json", []byte(fmt.Sprintf(`{"groups": [%s1], "outcomes": [1]}`, strings.Repeat("0,", 200))), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		ct := batchContentType
		if strings.Contains(tc.name, "json") {
			ct = "application/json"
		}
		st, out := postBatch(t, srv, "/v1/monitors/m/observe", ct, tc.body)
		if st != tc.want {
			t.Errorf("%s: status = %d, want %d: %s", tc.name, st, tc.want, out)
		}
		st, out = postBatch(t, srv, "/v1/monitors/m/decide", ct, tc.body)
		// decide without a plan is 409 before the body is read on the
		// JSON path; both 409 and the body error are acceptable there.
		if st != tc.want && st != http.StatusConflict {
			t.Errorf("%s (decide): status = %d, want %d or 409: %s", tc.name, st, tc.want, out)
		}
	}

	// The monitor never ingested any of it.
	var stats struct {
		Seen int `json:"seen"`
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/monitors/m")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Seen != 0 {
		t.Fatalf("bad batches mutated the monitor: seen = %d", stats.Seen)
	}

	// A valid batch still works after the failures (scratch pool intact).
	if st, out := postBatch(t, srv, "/v1/monitors/m/observe", batchContentType, ok); st != http.StatusOK {
		t.Fatalf("valid batch after failures: %d: %s", st, out)
	}
}

// TestBinaryContentTypeParameters: parameters after the media type are
// tolerated.
func TestBinaryContentTypeParameters(t *testing.T) {
	srv := testServer(t)
	resp := putMonitor(t, srv, "m", batchTestMonitor)
	resp.Body.Close()
	body := loadgen.AppendBinaryBatch(nil, []int{0}, []int{1})
	st, out := postBatch(t, srv, "/v1/monitors/m/observe", batchContentType+"; v=1", body)
	if st != http.StatusOK {
		t.Fatalf("parameterized content type: %d: %s", st, out)
	}
}

// BenchmarkHotPathBatchDecode asserts the //df:hotpath contract on
// decodeBinaryBatch at the benchmark layer: the CI alloc gate parses
// every BenchmarkHotPath* line and fails unless it reports 0 allocs/op
// (scripts/alloc_gate.sh).
func BenchmarkHotPathBatchDecode(b *testing.B) {
	const n = 256
	groups := make([]int, n)
	outcomes := make([]int, n)
	for i := range groups {
		groups[i] = i % 4
		outcomes[i] = i % 2
	}
	body := loadgen.AppendBinaryBatch(nil, groups, outcomes)
	count, off, err := binaryBatchLen(body)
	if err != nil || count != n {
		b.Fatalf("header: count=%d err=%v", count, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeBinaryBatch(body, off, groups, outcomes); err != nil {
			b.Fatal(err)
		}
	}
}

// ingestBody is one JSON observe body in the shape of perfbench's
// ingest workload: 1,024 decisions over nine binary attributes (512
// groups) with a zipf population skew.
func ingestBody(tb testing.TB) []byte { return observeBody(tb, 1024, 1) }

// observeBody synthesizes one JSON observe body of batch decisions in
// the shape of perfbench's ingest workload from the given seed.
func observeBody(tb testing.TB, batch int, seed uint64) []byte {
	tb.Helper()
	attrs := make([]fairness.Attr, 9)
	for i := range attrs {
		attrs[i] = fairness.Attr{Name: fmt.Sprintf("a%d", i+1), Values: []string{"0", "1"}}
	}
	synth, err := loadgen.NewSynth(loadgen.WorkloadConfig{
		Space: fairness.MustSpace(attrs...), Outcomes: 2, Monitors: 1, GroupSkew: 0.5,
		BatchSize: batch, Mix: loadgen.Mix{Observe: 1}, BaseRate: 0.2, RateSpread: 0.5, Seed: seed,
	}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var req loadgen.Request
	synth.Next(&req)
	return loadgen.AppendJSONObserve(nil, req.Groups, req.Outcomes)
}

// BenchmarkObserveHandler is the server's share of one perfbench ingest
// request, in process: the flag defaults' mux, one monitor with
// perfbench's ingest spec (nine binary attributes, a tumbling window of
// 2^30, α = 1, threshold 25, min_effective 2,048 and the four metric
// limits) warmed with 4,096 decisions, then one ingestBody POST per op
// through ServeHTTP into a ResponseRecorder. It times body read, JSON
// decode, validation, sharded ingest, the Watch check and the response
// together, without the network and the client.
func BenchmarkObserveHandler(b *testing.B) {
	mux := newMux(serverConfig{
		maxBody: 32 << 20, maxResamples: 100_000, maxMonitors: 1024, maxMonitorCells: 1 << 20,
	})
	attrs := make([]string, 9)
	for i := range attrs {
		attrs[i] = fmt.Sprintf(`{"name": "a%d", "values": ["0", "1"]}`, i+1)
	}
	spec := `{"space": [` + strings.Join(attrs, ", ") + `], "outcomes": ["y0", "y1"],
		"window": {"size": 1073741824}, "alpha": 1, "threshold": 25, "min_effective": 2048,
		"metrics": [{"key": "worst_gap", "threshold": 1}, {"key": "worst_ratio", "threshold": 0},
			{"key": "alpha_if", "threshold": 1}, {"key": "demographic_parity", "threshold": 1}]}`
	serve := func(method, path string, body []byte, want int) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		mux.ServeHTTP(rec, req)
		if rec.Code != want {
			b.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body)
		}
	}
	serve(http.MethodPut, "/v1/monitors/m", []byte(spec), http.StatusCreated)
	serve(http.MethodPost, "/v1/monitors/m/observe", observeBody(b, 4096, 2), http.StatusOK)
	// One request, its body rewound each op, keeps the harness's own
	// request parsing out of the measurement.
	body := bytes.NewReader(ingestBody(b))
	req := httptest.NewRequest(http.MethodPost, "/v1/monitors/m/observe", body)
	req.Header.Set("Content-Type", "application/json")
	b.SetBytes(body.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Seek(0, io.SeekStart)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("observe: status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkObserveRecord times the two ways the observe handler builds
// its WAL record for one batch in scripts/bench_serve.sh's shape
// (dfload's default space, batch 128, seed 42): "splice" copies a
// binary body behind the record header (encodeObserveRecordFromBatch),
// and "encode" encodes the index arrays a JSON body decodes to
// (encodeObserveRecord). Each case reports its wire form's body size as
// body-bytes. bench_serve.sh gates on both: binary must send fewer
// bytes and splice in at most half the time of the encode.
func BenchmarkObserveRecord(b *testing.B) {
	space := fairness.MustSpace(
		fairness.Attr{Name: "gender", Values: []string{"0", "1"}},
		fairness.Attr{Name: "race", Values: []string{"0", "1", "2", "3", "4"}},
		fairness.Attr{Name: "income", Values: []string{"0", "1", "2"}},
	)
	synth, err := loadgen.NewSynth(loadgen.WorkloadConfig{
		Space: space, Outcomes: 2, Monitors: 4, GroupSkew: 0.5,
		BatchSize: 128, Mix: loadgen.Mix{Observe: 1}, BaseRate: 0.2, RateSpread: 0.5, Seed: 42,
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	var req loadgen.Request
	synth.Next(&req)
	binaryBody := loadgen.AppendBinaryBatch(nil, req.Groups, req.Outcomes)
	jsonBody := loadgen.AppendJSONObserve(nil, req.Groups, req.Outcomes)
	if !bytes.Equal(encodeObserveRecordFromBatch("m", binaryBody), encodeObserveRecord("m", req.Groups, req.Outcomes)) {
		b.Fatal("spliced and encoded records differ")
	}
	b.Run("splice", func(b *testing.B) {
		b.ReportMetric(float64(len(binaryBody)), "body-bytes")
		for i := 0; i < b.N; i++ {
			encodeObserveRecordFromBatch("m", binaryBody)
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportMetric(float64(len(jsonBody)), "body-bytes")
		for i := 0; i < b.N; i++ {
			encodeObserveRecord("m", req.Groups, req.Outcomes)
		}
	})
}

// BenchmarkHotPathJSONBatchDecode asserts the //df:hotpath contract on
// decodeJSONBatch: one ingest-shaped body decoded into warm scratch at
// 0 allocs/op (scripts/alloc_gate.sh).
func BenchmarkHotPathJSONBatchDecode(b *testing.B) {
	s := &batchScratch{body: ingestBody(b)}
	s.size(jsonBatchCap(s.body))
	b.SetBytes(int64(len(s.body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.size(jsonBatchCap(s.body))
		if _, err := decodeJSONBatch(s, &observeForm); err != nil || len(s.groups) != 1024 {
			b.Fatalf("decoded %d pairs: %v", len(s.groups), err)
		}
	}
}
