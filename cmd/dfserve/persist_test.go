package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/wal"
)

// durableConfig is the base configuration for persistence tests; tests
// override snapshotInterval to steer between pure-WAL-replay and
// snapshot-heavy recovery.
func durableConfig(dir string, snapInterval int) serverConfig {
	return serverConfig{
		workers:          1,
		maxBody:          1 << 20,
		maxMonitors:      16,
		maxMonitorCells:  1 << 20,
		dataDir:          dir,
		fsync:            wal.SyncBatch,
		snapshotInterval: snapInterval,
	}
}

func durableServer(t *testing.T, dir string, snapInterval int) (*httptest.Server, *server) {
	t.Helper()
	sv := newServer(durableConfig(dir, snapInterval))
	srv := httptest.NewServer(sv)
	t.Cleanup(srv.Close)
	return srv, sv
}

func doReq(t *testing.T, srv *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
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

func mustReq(t *testing.T, srv *httptest.Server, method, path, body string, want int) []byte {
	t.Helper()
	code, out := doReq(t, srv, method, path, body)
	if code != want {
		t.Fatalf("%s %s: got %d, want %d: %s", method, path, code, want, out)
	}
	return out
}

// seedRegistry drives a representative mutation history: two monitors
// with different policies, observe batches, a deleted monitor, an
// installed repair plan, and decide batches feeding the served stream.
func seedRegistry(t *testing.T, srv *httptest.Server) {
	t.Helper()
	mustReq(t, srv, http.MethodPut, "/v1/monitors/exp",
		`{"space": [{"name": "g", "values": ["a", "b"]}, {"name": "h", "values": ["x", "y"]}],
		  "outcomes": ["deny", "approve"], "half_life": 200, "alpha": 0.5,
		  "threshold": 0.8, "min_effective": 4}`, http.StatusCreated)
	mustReq(t, srv, http.MethodPut, "/v1/monitors/win",
		`{"space": [{"name": "g", "values": ["a", "b"]}],
		  "outcomes": ["deny", "approve"], "window": {"size": 60, "buckets": 4}, "alpha": 1}`,
		http.StatusCreated)
	mustReq(t, srv, http.MethodPut, "/v1/monitors/gone",
		`{"space": [{"name": "g", "values": ["a", "b"]}],
		  "outcomes": ["deny", "approve"], "half_life": 10, "alpha": 0}`, http.StatusCreated)
	mustReq(t, srv, http.MethodDelete, "/v1/monitors/gone", "", http.StatusNoContent)

	// Skewed ingest so the exp monitor breaches and a plan has work to
	// do: group 0 mostly approved, group 3 mostly denied.
	for i := 0; i < 8; i++ {
		mustReq(t, srv, http.MethodPost, "/v1/monitors/exp/observe",
			`{"groups": [0,0,0,0,1,2,3,3,3,3], "outcomes": [1,1,1,0,1,0,0,0,0,1]}`,
			http.StatusOK)
		mustReq(t, srv, http.MethodPost, "/v1/monitors/win/observe",
			`{"groups": [0,0,1,1], "outcomes": [1,0,0,1]}`, http.StatusOK)
	}
	mustReq(t, srv, http.MethodPost, "/v1/monitors/exp/repair",
		`{"target_epsilon": 0.5, "seed": 7, "auto_refresh": false}`, http.StatusOK)
	for i := 0; i < 6; i++ {
		mustReq(t, srv, http.MethodPost, "/v1/monitors/exp/decide",
			`{"groups": [0,1,2,3,3,0], "decisions": [1,1,0,0,0,1]}`, http.StatusOK)
	}
}

// goldenViews captures every read surface a restart must reproduce.
func goldenViews(t *testing.T, srv *httptest.Server) map[string][]byte {
	t.Helper()
	views := map[string][]byte{}
	for _, path := range []string{
		"/v1/monitors",
		"/v1/monitors/exp",
		"/v1/monitors/win",
		"/v1/monitors/exp/report?seed=1",
		"/v1/monitors/exp/report?stream=served&seed=1",
		"/v1/monitors/win/report?seed=1&bootstrap=50",
	} {
		views[path] = mustReq(t, srv, http.MethodGet, path, "", http.StatusOK)
	}
	return views
}

func checkViews(t *testing.T, srv *httptest.Server, want map[string][]byte) {
	t.Helper()
	for path, golden := range want {
		got := mustReq(t, srv, http.MethodGet, path, "", http.StatusOK)
		if !bytes.Equal(got, golden) {
			t.Errorf("%s diverged after restart:\n got: %s\nwant: %s", path, got, golden)
		}
	}
}

// TestRestartByteIdenticalWALOnly kills a server (no clean shutdown, no
// snapshot: the interval is never reached) and rebuilds purely from the
// WAL: every report, stat and listing must be byte-identical, including
// the post-repair served stream and the deleted monitor staying gone.
func TestRestartByteIdenticalWALOnly(t *testing.T) {
	dir := t.TempDir()
	srv1, _ := durableServer(t, dir, 1<<30)
	seedRegistry(t, srv1)
	golden := goldenViews(t, srv1)
	srv1.Close() // abrupt: no closeStore, the WAL is the only truth

	srv2, sv2 := durableServer(t, dir, 1<<30)
	if reason := sv2.reg.store.degraded(); reason != "" {
		t.Fatalf("restart came up degraded: %s", reason)
	}
	checkViews(t, srv2, golden)
	if code, body := doReq(t, srv2, http.MethodGet, "/v1/monitors/gone", ""); code != http.StatusNotFound {
		t.Fatalf("deleted monitor resurrected: %d %s", code, body)
	}
}

// TestRestartByteIdenticalWithSnapshots is the same contract with an
// aggressive snapshot interval, so recovery is snapshot + WAL tail (and
// a second restart exercises recovery from recovered state).
func TestRestartByteIdenticalWithSnapshots(t *testing.T) {
	dir := t.TempDir()
	srv1, _ := durableServer(t, dir, 4)
	seedRegistry(t, srv1)
	golden := goldenViews(t, srv1)
	srv1.Close()

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("expected snapshots in %s (err %v)", dir, err)
	}

	srv2, _ := durableServer(t, dir, 4)
	checkViews(t, srv2, golden)
	// Keep mutating, then restart again: recovered state must be as
	// durable as original state.
	mustReq(t, srv2, http.MethodPost, "/v1/monitors/exp/observe",
		`{"groups": [0,3], "outcomes": [1,0]}`, http.StatusOK)
	golden2 := goldenViews(t, srv2)
	srv2.Close()

	srv3, _ := durableServer(t, dir, 4)
	checkViews(t, srv3, golden2)
}

// TestCleanShutdownSnapshotsAndRecovers runs the closeStore path: a
// final snapshot lands, the WAL closes cleanly, and the next boot
// serves identical state.
func TestCleanShutdownSnapshotsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	srv1, sv1 := durableServer(t, dir, 1<<30)
	seedRegistry(t, srv1)
	golden := goldenViews(t, srv1)
	srv1.Close()
	sv1.reg.closeStore()

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("clean shutdown left no snapshot in %s (err %v)", dir, err)
	}

	srv2, _ := durableServer(t, dir, 1<<30)
	checkViews(t, srv2, golden)
}

// TestDecideContinuityAcrossRestart runs the same sequential request
// transcript against an in-memory control server and a durable server
// that is killed and rebooted mid-sequence: every response after the
// restart must match the control byte for byte — the restored plan
// resumes its decide ticket clock, so the applier's deterministic
// randomized rounding stays aligned. In the second case the space has a
// third group that no observation covers, so the plan does not cover it
// either, and a decide batch naming it is rejected before the restart:
// a rejected batch writes no WAL record, so it must claim no tickets. In
// the third case the durable server's WAL fails, a decide is refused
// with a 503 (the control never sees it), and the degraded server then
// shuts down cleanly: its restart must not resume the refused batch's
// ticket claim either.
func TestDecideContinuityAcrossRestart(t *testing.T) {
	for _, tc := range []struct {
		name     string
		values   string
		rejected string // a decide body both servers answer 400 just before the restart
		degraded bool   // the durable server degrades, refuses a decide and shuts down cleanly
	}{
		{"covered groups", `["a", "b"]`, "", false},
		{"rejected uncovered group", `["a", "b", "c"]`, `{"groups": [0,2,1,2], "decisions": [1,0,0,1]}`, false},
		{"refused while degraded", `["a", "b"]`, "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			control := httptest.NewServer(newMux(serverConfig{workers: 1, maxBody: 1 << 20}))
			defer control.Close()
			dir := t.TempDir()
			durable, sv := durableServer(t, dir, 6)

			setup := func(srv *httptest.Server) {
				mustReq(t, srv, http.MethodPut, "/v1/monitors/m",
					`{"space": [{"name": "g", "values": `+tc.values+`}],
					  "outcomes": ["deny", "approve"], "window": {"size": 100000}, "alpha": 0}`,
					http.StatusCreated)
				mustReq(t, srv, http.MethodPost, "/v1/monitors/m/observe",
					`{"groups": [0,0,0,0,0,0,1,1,1,1,1,1], "outcomes": [1,1,1,1,1,0,0,0,0,0,0,1]}`,
					http.StatusOK)
				mustReq(t, srv, http.MethodPost, "/v1/monitors/m/repair",
					`{"target_epsilon": 0.3, "seed": 42}`, http.StatusOK)
			}
			setup(control)
			setup(durable)

			decide := func(i int) string {
				return fmt.Sprintf(`{"groups": [0,1,0,1], "decisions": [%d,%d,1,0]}`, i%2, (i+1)%2)
			}
			for i := 0; i < 5; i++ {
				want := mustReq(t, control, http.MethodPost, "/v1/monitors/m/decide", decide(i), http.StatusOK)
				got := mustReq(t, durable, http.MethodPost, "/v1/monitors/m/decide", decide(i), http.StatusOK)
				if !bytes.Equal(got, want) {
					t.Fatalf("decide %d diverged before restart:\n got: %s\nwant: %s", i, got, want)
				}
			}
			if tc.rejected != "" {
				mustReq(t, control, http.MethodPost, "/v1/monitors/m/decide", tc.rejected, http.StatusBadRequest)
				mustReq(t, durable, http.MethodPost, "/v1/monitors/m/decide", tc.rejected, http.StatusBadRequest)
			}
			if tc.degraded {
				if err := sv.reg.store.log.Close(); err != nil {
					t.Fatal(err)
				}
				mustReq(t, durable, http.MethodPost, "/v1/monitors/m/decide", decide(5), http.StatusServiceUnavailable)
				sv.reg.closeStore()
			}

			durable.Close() // SIGKILL-equivalent for the registry unless closeStore ran
			durable2, _ := durableServer(t, dir, 6)

			for i := 5; i < 12; i++ {
				want := mustReq(t, control, http.MethodPost, "/v1/monitors/m/decide", decide(i), http.StatusOK)
				got := mustReq(t, durable2, http.MethodPost, "/v1/monitors/m/decide", decide(i), http.StatusOK)
				if !bytes.Equal(got, want) {
					t.Fatalf("decide %d diverged after restart:\n got: %s\nwant: %s", i, got, want)
				}
			}
			want := mustReq(t, control, http.MethodGet, "/v1/monitors/m/report?stream=served&seed=1", "", http.StatusOK)
			got := mustReq(t, durable2, http.MethodGet, "/v1/monitors/m/report?stream=served&seed=1", "", http.StatusOK)
			if !bytes.Equal(got, want) {
				t.Fatalf("served report diverged after restart:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestWatchedExponentialObserveAcrossRestart runs a watched exponential
// monitor (half-life 50, α = 1, an armed ε threshold) against an
// in-memory control server and a durable server that is killed after 20
// observe batches and rebooted from its WAL alone or from a snapshot
// plus the WAL tail: each of the 40 observe responses after the restart,
// with their effective_count and alert, must match the control byte for
// byte. Its Watch checks the merged shards, the state WriteState
// captures and replay rebuilds, so nothing it answers depends on the
// restart.
func TestWatchedExponentialObserveAcrossRestart(t *testing.T) {
	for _, tc := range []struct {
		name         string
		snapInterval int
	}{
		{"wal only", 1 << 30},
		{"snapshot every 7 records", 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			control := httptest.NewServer(newMux(serverConfig{workers: 1, maxBody: 1 << 20}))
			defer control.Close()
			dir := t.TempDir()
			durable, _ := durableServer(t, dir, tc.snapInterval)
			spec := `{"space": [{"name": "g", "values": ["a", "b", "c"]}, {"name": "h", "values": ["x", "y"]}],
			  "outcomes": ["deny", "approve"], "half_life": 50, "alpha": 1, "threshold": 0.9}`
			mustReq(t, control, http.MethodPut, "/v1/monitors/m", spec, http.StatusCreated)
			mustReq(t, durable, http.MethodPut, "/v1/monitors/m", spec, http.StatusCreated)

			r := rng.New(15)
			batch := func() string {
				n := 1 + r.Intn(32)
				groups := make([]string, n)
				outcomes := make([]string, n)
				for i := range groups {
					g := r.Intn(6)
					y := 0
					if r.Float64() < 0.2+0.1*float64(g) {
						y = 1
					}
					groups[i], outcomes[i] = fmt.Sprint(g), fmt.Sprint(y)
				}
				return `{"groups": [` + strings.Join(groups, ",") + `], "outcomes": [` + strings.Join(outcomes, ",") + `]}`
			}
			alerts := 0
			observe := func(srv *httptest.Server, i int) {
				body := batch()
				want := mustReq(t, control, http.MethodPost, "/v1/monitors/m/observe", body, http.StatusOK)
				got := mustReq(t, srv, http.MethodPost, "/v1/monitors/m/observe", body, http.StatusOK)
				if !bytes.Equal(got, want) {
					t.Fatalf("observe %d diverged:\n got: %s\nwant: %s", i, got, want)
				}
				if bytes.Contains(want, []byte(`"alert"`)) {
					alerts++
				}
			}
			for i := 0; i < 20; i++ {
				observe(durable, i)
			}
			durable.Close() // abrupt: no closeStore
			durable2, sv2 := durableServer(t, dir, tc.snapInterval)
			if reason := sv2.reg.store.degraded(); reason != "" {
				t.Fatalf("restart came up degraded: %s", reason)
			}
			alerts = 0
			for i := 20; i < 60; i++ {
				observe(durable2, i)
			}
			if alerts == 0 {
				t.Fatal("no observe after the restart alerted; the alert comparison exercised nothing")
			}
		})
	}
}

// TestDegradedBootServesReadOnly points -data-dir at a regular file:
// boot cannot possibly persist anything, so the server must come up
// degraded — healthz says so, mutations get 503, reads still work.
func TestDegradedBootServesReadOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, sv := durableServer(t, path, 0)
	if reason := sv.reg.store.degraded(); reason == "" {
		t.Fatal("boot against a regular file did not degrade")
	}

	body := mustReq(t, srv, http.MethodGet, "/healthz", "", http.StatusOK)
	if !bytes.Contains(body, []byte(`"degraded"`)) {
		t.Fatalf("healthz does not report degraded: %s", body)
	}
	code, body := doReq(t, srv, http.MethodPut, "/v1/monitors/m",
		`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["n", "y"], "half_life": 10, "alpha": 0}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("PUT on degraded server: got %d %s, want 503", code, body)
	}
	mustReq(t, srv, http.MethodGet, "/v1/monitors", "", http.StatusOK)
}

// TestRuntimeDegradeTurnsReadOnly breaks the WAL out from under a live
// server: the next acknowledged-durability mutation must fail into
// degraded read-only mode instead of lying, while reads keep serving
// the last good state.
func TestRuntimeDegradeTurnsReadOnly(t *testing.T) {
	dir := t.TempDir()
	srv, sv := durableServer(t, dir, 1<<30)
	mustReq(t, srv, http.MethodPut, "/v1/monitors/m",
		`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["n", "y"], "half_life": 10, "alpha": 0}`,
		http.StatusCreated)
	mustReq(t, srv, http.MethodPost, "/v1/monitors/m/observe",
		`{"groups": [0,1], "outcomes": [1,0]}`, http.StatusOK)

	if err := sv.reg.store.log.Close(); err != nil {
		t.Fatal(err)
	}
	code, body := doReq(t, srv, http.MethodPost, "/v1/monitors/m/observe",
		`{"groups": [0,1], "outcomes": [1,0]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("observe after wal failure: got %d %s, want 503", code, body)
	}
	if reason := sv.reg.store.degraded(); reason == "" {
		t.Fatal("wal failure did not degrade the server")
	}
	health := mustReq(t, srv, http.MethodGet, "/healthz", "", http.StatusOK)
	if !bytes.Contains(health, []byte(`"degraded"`)) {
		t.Fatalf("healthz does not report degraded: %s", health)
	}
	// Reads survive: the pre-failure observation is still served.
	stats := mustReq(t, srv, http.MethodGet, "/v1/monitors/m", "", http.StatusOK)
	if !bytes.Contains(stats, []byte(`"seen":2`)) {
		t.Fatalf("degraded server lost read state: %s", stats)
	}
}

// TestDrainGateRejectsNewRequests flips the drain flag: new requests
// get 503 + Retry-After, healthz reports draining.
func TestDrainGateRejectsNewRequests(t *testing.T) {
	sv := newServer(serverConfig{workers: 1, maxBody: 1 << 20})
	srv := httptest.NewServer(sv)
	defer srv.Close()
	sv.draining.Store(true)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/monitors", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 is missing Retry-After")
	}
	health := mustReq(t, srv, http.MethodGet, "/healthz", "", http.StatusOK)
	if !bytes.Contains(health, []byte(`"draining"`)) {
		t.Fatalf("healthz does not report draining: %s", health)
	}
}

// TestRestartRejectsMismatchedLimits replays a WAL whose monitor no
// longer fits the server's cell limit: boot must degrade (read-only)
// rather than drop the monitor silently or crash.
func TestRestartRejectsMismatchedLimits(t *testing.T) {
	dir := t.TempDir()
	srv1, _ := durableServer(t, dir, 1<<30)
	mustReq(t, srv1, http.MethodPut, "/v1/monitors/m",
		`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["n", "y"], "half_life": 10, "alpha": 0}`,
		http.StatusCreated)
	srv1.Close()

	cfg := durableConfig(dir, 1<<30)
	cfg.maxMonitorCells = 1 // nothing fits
	sv := newServer(cfg)
	if reason := sv.reg.store.degraded(); reason == "" {
		t.Fatal("boot with shrunken limits did not degrade")
	}
}

// TestApplyRecordRejectsCorruptRecords drives the replay decoder over
// hand-corrupted payloads. The WAL's CRC catches torn writes, not
// hand-edited or version-skewed records, so every malformed payload
// must come back as an error (which boot turns into degraded mode) —
// never a panic, a silent skip, or an attacker-sized allocation.
func TestApplyRecordRejectsCorruptRecords(t *testing.T) {
	r := newRegistry(durableConfig("", 1<<30))
	var spec monitorSpec
	if err := json.Unmarshal([]byte(`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["n", "y"], "half_life": 10, "alpha": 0}`), &spec); err != nil {
		t.Fatal(err)
	}
	putRec, err := encodeJSONRecord(recMonitorPut, putRecord{ID: "m", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.applyRecord(putRec); err != nil {
		t.Fatalf("valid put record: %v", err)
	}
	if err := r.applyRecord([]byte{recNoop}); err != nil {
		t.Fatalf("noop record: %v", err)
	}
	obsRec := encodeObserveRecord("m", []int{0, 1}, []int{1, 0})
	if err := r.applyRecord(obsRec); err != nil {
		t.Fatalf("valid observe record: %v", err)
	}

	hugeN := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // uvarint ~4.3e9
	bad := map[string][]byte{
		"empty payload":       {},
		"unknown kind":        {99},
		"put bad json":        {recMonitorPut, '{'},
		"put unbuildable":     append([]byte{recMonitorPut}, `{"id": "z", "spec": {"space": [], "outcomes": []}}`...),
		"delete bad json":     {recMonitorDelete, '{'},
		"plan bad json":       {recPlanInstall, '{'},
		"plan unknown id":     append([]byte{recPlanInstall}, `{"id": "ghost"}`...),
		"observe empty body":  {recObserve},
		"observe torn id":     {recObserve, 5, 'm'},
		"observe huge n":      append([]byte{recObserve, 1, 'm'}, hugeN...),
		"observe torn pairs":  {recObserve, 1, 'm', 2, 0, 1},
		"observe unknown id":  {recObserve, 1, 'x', 1, 0, 0},
		"observe zero pairs":  {recObserve, 1, 'm', 0},
		"observe trailing":    {recObserve, 1, 'm', 1, 0, 1, 7},
		"observe bad group":   {recObserve, 1, 'm', 1, 9, 0},
		"observe bad outcome": {recObserve, 1, 'm', 1, 0, 9},
		"decide empty body":   {recDecide},
		"decide torn id":      {recDecide, 5, 'm'},
		"decide huge n":       append([]byte{recDecide, 1, 'm', 0}, hugeN...),
		"decide torn triples": {recDecide, 1, 'm', 0, 2, 0, 1, 1},
		"decide unknown id":   {recDecide, 1, 'x', 0, 0},
		"decide no plan":      {recDecide, 1, 'm', 0, 1, 0, 0, 0},
	}
	for name, payload := range bad {
		if err := r.applyRecord(payload); err == nil {
			t.Errorf("%s: applyRecord accepted a corrupt record", name)
		}
	}

	// The corrupt barrage must not have perturbed the monitor: exactly
	// the one valid observe batch is counted.
	e, ok := r.lookup("m")
	if !ok {
		t.Fatal("monitor lost during corrupt replay")
	}
	if n := e.mon.Seen(); n != 2 {
		t.Fatalf("corrupt records perturbed counts: seen %d, want 2", n)
	}
}
