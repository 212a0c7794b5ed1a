// Command dfserve exposes the differential-fairness auditor as an HTTP
// service — the "auditing as a service" deployment of the paper's §5
// case study. Clients POST a protected-attribute space plus either raw
// observations or a pre-aggregated contingency table and receive the
// versioned JSON report (fairness.Report) that cmd/dfaudit -format json
// prints for the same inputs, options and seed — byte-identical.
//
// Endpoints:
//
//	POST   /v1/audit                  — audit one dataset (JSON in, Report JSON out)
//	POST   /v1/repair                 — repair plan for one dataset (counts in, RepairPlan out)
//	PUT    /v1/monitors/{id}          — create/replace a named streaming monitor
//	GET    /v1/monitors               — list monitors
//	GET    /v1/monitors/{id}          — one monitor's config and counters
//	DELETE /v1/monitors/{id}          — remove a monitor
//	POST   /v1/monitors/{id}/observe  — ingest a batch of decisions (hot path;
//	                                    JSON or application/x-df-batch)
//	GET    /v1/monitors/{id}/report   — full versioned Report from a live snapshot
//	                                    (?stream=served for the post-repair stream)
//	POST   /v1/monitors/{id}/repair   — compute + install a plan from the live window
//	POST   /v1/monitors/{id}/decide   — apply the installed plan to a decision batch
//	                                    (JSON or application/x-df-batch)
//	GET    /healthz                   — liveness probe
//
// Observe and decide batches may be posted either as JSON or with
// Content-Type application/x-df-batch: a uvarint pair count followed by
// count × (uvarint group, uvarint outcome) — the same framing as the
// WAL's observe records, so a binary observe body is spliced into the
// durability log verbatim. Request bodies everywhere are capped at
// -max-body-bytes; oversized bodies are rejected with 413.
//
// Stateless audits get a per-request Auditor over the shared worker-pool
// engine; the request context is threaded through the
// bootstrap/posterior fan-outs, so a disconnected or timed-out client
// cancels its in-flight resampling promptly. Monitors are long-lived and
// internally sharded, so concurrent observe streams against one monitor
// scale with cores. The repair/decide pair closes the monitoring loop:
// a monitor that detects an ε breach feeds its window to a Repairer, and
// the resulting plan post-processes live decision batches (raw
// proposals keep feeding the monitor so plans stay calibrated; served
// decisions feed a shadow stream whose report proves the output meets
// the target; with auto_refresh, an alert mid-serving recomputes the
// plan in place). SIGINT/SIGTERM triggers a graceful drain: in-flight
// requests finish (up to -drain), new connections are refused.
//
// Usage:
//
//	dfserve -addr :8080 -workers 4
//	curl -s localhost:8080/v1/audit -d '{
//	  "space": [{"name": "gender", "values": ["F", "M"]}],
//	  "outcomes": ["deny", "approve"],
//	  "counts": [[80, 20], [40, 60]],
//	  "options": {"bootstrap": {"replicates": 500, "level": 0.95}}
//	}'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	fairness "repro"
	"repro/internal/core"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker-pool cap per request (0 = one per CPU)")
	maxBody := flag.Int64("max-body-bytes", 32<<20, "maximum request body bytes; oversized bodies get 413")
	maxResamples := flag.Int("max-resamples", 100_000, "maximum bootstrap replicates / posterior samples per request")
	maxMonitors := flag.Int("max-monitors", 1024, "maximum registered monitors")
	maxMonitorCells := flag.Int("max-monitor-cells", 1<<20, "maximum stored cells per monitor stream: groups × outcomes × ingest shards (× buckets for sliding windows); a monitor with an installed repair plan stores two streams (raw + served). Also caps the groups × outcomes table of an observations-form /v1/audit or /v1/repair body")
	writeTimeout := flag.Duration("write-timeout", 2*time.Minute, "per-response write deadline")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle deadline")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	dataDir := flag.String("data-dir", "", "durability directory for the monitor registry (WAL + snapshots); empty disables persistence")
	fsync := flag.String("fsync", "batch", "WAL fsync policy: always (fsync per request), batch (group commit), or os (no fsync)")
	snapshotInterval := flag.Int("snapshot-interval", defaultSnapshotInterval, "WAL records between registry snapshots")
	flag.Parse()

	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfserve:", err)
		os.Exit(2)
	}
	if *snapshotInterval <= 0 {
		fmt.Fprintln(os.Stderr, "dfserve: -snapshot-interval must be positive")
		os.Exit(2)
	}

	sv := newServer(serverConfig{
		workers:          *workers,
		maxBody:          *maxBody,
		maxResamples:     *maxResamples,
		maxMonitors:      *maxMonitors,
		maxMonitorCells:  *maxMonitorCells,
		dataDir:          *dataDir,
		fsync:            policy,
		snapshotInterval: *snapshotInterval,
	})
	srv := &http.Server{
		Handler:           sv,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops accepting
	// connections, fails new requests with 503 + Retry-After, and drains
	// in-flight requests for up to -drain; a second signal (stop()
	// restores default handling) kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop()
		sv.draining.Store(true)
		// Hold a short grace window with the listener still open before
		// Shutdown. Shutdown (and SetKeepAlivesEnabled) close "idle"
		// keep-alive connections immediately, but a client may be
		// mid-write on one it considers live — closing a socket with
		// unread bytes sends a RST, exactly the dirty teardown the drain
		// gate exists to prevent. During the grace, racing requests get
		// the gate's honest 503 + Retry-After + Connection: close, so
		// every active connection winds down with a clean FIN after a
		// complete response; Shutdown then only reaps truly idle ones.
		log.Printf("dfserve: signal received, draining for up to %v", *drain)
		grace := *drain / 4
		if grace > time.Second {
			grace = time.Second
		}
		time.Sleep(grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		drained <- srv.Shutdown(shutdownCtx)
	}()

	// Listen before logging so the printed address is the resolved one
	// (":0" becomes the actual port) — the crash-recovery harness scrapes
	// it to find the child.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfserve:", err)
		os.Exit(1)
	}
	log.Printf("dfserve: listening on %s", ln.Addr())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dfserve:", err)
		os.Exit(1)
	}
	if err := <-drained; err != nil {
		fmt.Fprintln(os.Stderr, "dfserve: drain:", err)
		os.Exit(1)
	}
	// In-flight requests are done; flush a final snapshot and close the
	// WAL so the next boot replays nothing.
	sv.reg.closeStore()
	log.Printf("dfserve: drained, bye")
}

type serverConfig struct {
	workers int
	maxBody int64
	// maxResamples bounds client-requested bootstrap replicates and
	// posterior samples: each replicate slot is allocated up front, so an
	// unbounded request could OOM the server with a 60-byte body.
	maxResamples int
	// maxMonitors and maxMonitorCells cap what the registry admits:
	// monitors are long-lived server state, unlike audit requests. The
	// cell cap counts groups × outcomes × shards per stream, not the
	// subset lattice a monitor's first report attaches (3^p marginal
	// groups over p binary attributes), so neither bounds the
	// registry's memory; ROADMAP.md's subset-lattice item tracks that
	// cap. The cell cap also bounds the table of an observations-form
	// /v1/audit or /v1/repair body (a counts-form body bounds its own).
	maxMonitors     int
	maxMonitorCells int
	// dataDir, when set, arms the durability layer (persist.go): the
	// registry recovers from snapshot + WAL on boot and every mutation
	// is made durable under the fsync policy before acknowledgment.
	dataDir          string
	fsync            wal.SyncPolicy
	snapshotInterval int
}

// server is the full service: the routed mux plus the drain gate and
// the registry handle main needs for shutdown.
type server struct {
	mux      *http.ServeMux
	reg      *registry
	draining atomic.Bool
}

// ServeHTTP fronts the mux with the drain gate: once shutdown begins,
// new requests get an honest 503 with Retry-After instead of racing the
// closing listener. healthz stays reachable so orchestrators can watch
// the drain.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() && r.URL.Path != "/healthz" {
		// Connection: close makes the server finish this response and
		// then FIN the connection — the clean per-connection wind-down
		// the drain's grace period relies on.
		w.Header().Set("Connection", "close")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return
	}
	s.mux.ServeHTTP(w, r)
}

// handleHealthz reports the server's availability state: "ok",
// "draining" during shutdown, or "degraded" (with the reason) when the
// durability layer has failed and the server is read-only.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]string{"status": "ok"}
	if reason := s.reg.store.degraded(); reason != "" {
		resp["status"] = "degraded"
		resp["reason"] = reason
	}
	if s.draining.Load() {
		resp["status"] = "draining"
	}
	writeJSON(w, http.StatusOK, resp)
}

// newServer builds the service. Boot never fails: if the data dir is
// unusable the registry recovers what it can and comes up degraded
// (read-only), reported via healthz — a broken disk demotes the node
// rather than crash-looping it.
func newServer(cfg serverConfig) *server {
	s := &server{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/audit", func(w http.ResponseWriter, r *http.Request) {
		handleAudit(w, r, cfg)
	})
	mux.HandleFunc("POST /v1/repair", func(w http.ResponseWriter, r *http.Request) {
		handleRepair(w, r, cfg)
	})
	reg := newRegistry(cfg)
	if cfg.dataDir != "" {
		reg.openStore(cfg.dataDir, cfg.fsync, cfg.snapshotInterval)
	}
	s.reg = reg
	mux.HandleFunc("PUT /v1/monitors/{id}", reg.handlePut)
	mux.HandleFunc("GET /v1/monitors", reg.handleList)
	mux.HandleFunc("GET /v1/monitors/{id}", reg.handleGet)
	mux.HandleFunc("DELETE /v1/monitors/{id}", reg.handleDelete)
	mux.HandleFunc("POST /v1/monitors/{id}/observe", reg.handleObserve)
	mux.HandleFunc("GET /v1/monitors/{id}/report", reg.handleReport)
	mux.HandleFunc("POST /v1/monitors/{id}/repair", reg.handleMonitorRepair)
	mux.HandleFunc("POST /v1/monitors/{id}/decide", reg.handleDecide)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// newMux builds the service's routes without persistence; split from
// main for httptest use. Each mux owns a fresh monitor registry.
func newMux(cfg serverConfig) *http.ServeMux {
	return newServer(cfg).mux
}

// auditRequest is the POST /v1/audit body: the protected space, the
// outcome vocabulary, exactly one of counts/observations, and options
// mirroring the fairness.Option surface.
type auditRequest struct {
	// Space lists the protected attributes in order; group indices and
	// the counts matrix enumerate their Cartesian product row-major with
	// the last attribute varying fastest.
	Space    []attrSpec `json:"space"`
	Outcomes []string   `json:"outcomes"`
	// Counts is a pre-aggregated contingency table: one row per
	// intersectional group, one column per outcome.
	Counts [][]float64 `json:"counts,omitempty"`
	// Observations is the raw alternative: one decision per entry.
	Observations []observation `json:"observations,omitempty"`
	Options      auditOptions  `json:"options"`
}

type attrSpec struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

type observation struct {
	// Group maps attribute name to value, e.g. {"gender": "F"}.
	Group map[string]string `json:"group"`
	// Outcome is one of the request's outcome labels.
	Outcome string `json:"outcome"`
}

type auditOptions struct {
	Alpha        float64        `json:"alpha"`
	Subsets      *bool          `json:"subsets,omitempty"`
	Simpson      *bool          `json:"simpson,omitempty"`
	Bootstrap    *bootstrapSpec `json:"bootstrap,omitempty"`
	Credible     *credibleSpec  `json:"credible,omitempty"`
	RepairTarget float64        `json:"repair_target"`
	Seed         *uint64        `json:"seed,omitempty"`
	// Metrics selects additional fairness metrics by registry key
	// (fairness.MetricKeys); each gets its own report section.
	Metrics []string `json:"metrics,omitempty"`
}

type bootstrapSpec struct {
	Replicates int `json:"replicates"`
	// Level defaults to 0.95 when omitted; pointer so an explicit
	// invalid 0 is rejected rather than silently defaulted.
	Level *float64 `json:"level,omitempty"`
}

type credibleSpec struct {
	Samples int `json:"samples"`
	// PriorAlpha defaults to 1 when omitted.
	PriorAlpha *float64 `json:"prior_alpha,omitempty"`
	// Level defaults to 0.95 when omitted.
	Level *float64 `json:"level,omitempty"`
}

func handleAudit(w http.ResponseWriter, r *http.Request, cfg serverConfig) {
	var req auditRequest
	if !decodeJSONBody(w, r, cfg.maxBody, &req, "request body") {
		return
	}

	counts, err := req.buildCounts(cfg.maxMonitorCells)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Options.checkLimits(cfg.maxResamples); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	auditor, err := fairness.NewAuditor(counts.Space(), counts.Outcomes(), req.Options.toOptions(cfg.workers)...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	report, err := auditor.Run(r.Context(), counts)
	if err != nil {
		writeAuditError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := report.RenderJSON(w); err != nil {
		log.Printf("dfserve: writing report: %v", err)
	}
}

// buildCounts materializes the request's contingency table. The body
// bounds the table before it is allocated: the counts form must hold a
// row per group of a cell per outcome, and the observations form's
// groups × outcomes may not pass maxCells (-max-monitor-cells; 0 means
// no cap).
func (req *auditRequest) buildCounts(maxCells int) (*core.Counts, error) {
	space, err := newSpace(req.Space)
	if err != nil {
		return nil, err
	}
	switch {
	case len(req.Counts) > 0 && len(req.Observations) > 0:
		return nil, fmt.Errorf("provide counts or observations, not both")
	case len(req.Counts) > 0:
		if len(req.Counts) != space.Size() {
			return nil, fmt.Errorf("counts: got %d group rows, space has %d groups", len(req.Counts), space.Size())
		}
		for g, row := range req.Counts {
			if len(row) != len(req.Outcomes) {
				return nil, fmt.Errorf("counts: group %d has %d cells, want %d outcomes", g, len(row), len(req.Outcomes))
			}
		}
	case len(req.Observations) > 0:
		if k := max(len(req.Outcomes), 1); maxCells > 0 && space.Size() > maxCells/k {
			return nil, fmt.Errorf("observations: %d groups × %d outcomes is more cells than this server's limit of %d", space.Size(), k, maxCells)
		}
	default:
		return nil, fmt.Errorf("one of counts or observations is required")
	}
	counts, err := core.NewCounts(space, req.Outcomes)
	if err != nil {
		return nil, err
	}
	if len(req.Counts) > 0 {
		for g, row := range req.Counts {
			for y, v := range row {
				if v == 0 {
					continue
				}
				if err := counts.Add(g, y, v); err != nil {
					return nil, fmt.Errorf("counts: group %d outcome %d: %w", g, y, err)
				}
			}
		}
		return counts, nil
	}
	groups, outcomes, err := lowerObservations(space, req.Outcomes, req.Observations)
	if err != nil {
		return nil, err
	}
	for i := range groups {
		if err := counts.Observe(groups[i], outcomes[i]); err != nil {
			return nil, fmt.Errorf("observations[%d]: %w", i, err)
		}
	}
	return counts, nil
}

// newSpace builds the protected-attribute space of a request's or a
// monitor spec's attribute list.
func newSpace(specs []attrSpec) (*core.Space, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("space: need at least one protected attribute")
	}
	attrs := make([]core.Attr, len(specs))
	for i, a := range specs {
		attrs[i] = core.Attr{Name: a.Name, Values: a.Values}
	}
	return core.NewSpace(attrs...)
}

// lowerObservations maps named observations to group and outcome
// indices over the space and outcome labels.
func lowerObservations(space *core.Space, labels []string, obs []observation) (groups, outcomes []int, err error) {
	index := make(map[string]int, len(labels))
	for i, o := range labels {
		index[o] = i
	}
	groups, outcomes = make([]int, len(obs)), make([]int, len(obs))
	for i, o := range obs {
		if groups[i], err = space.IndexByValues(o.Group); err != nil {
			return nil, nil, fmt.Errorf("observations[%d]: %w", i, err)
		}
		y, ok := index[o.Outcome]
		if !ok {
			return nil, nil, fmt.Errorf("observations[%d]: unknown outcome %q", i, o.Outcome)
		}
		outcomes[i] = y
	}
	return groups, outcomes, nil
}

// checkLimits enforces the server's resource ceiling on the
// client-controlled fan-out sizes (each replicate/sample slot is
// allocated up front).
func (o *auditOptions) checkLimits(maxResamples int) error {
	if maxResamples <= 0 {
		return nil
	}
	if b := o.Bootstrap; b != nil && b.Replicates > maxResamples {
		return fmt.Errorf("bootstrap.replicates %d exceeds this server's limit of %d", b.Replicates, maxResamples)
	}
	if c := o.Credible; c != nil && c.Samples > maxResamples {
		return fmt.Errorf("credible.samples %d exceeds this server's limit of %d", c.Samples, maxResamples)
	}
	return nil
}

// toOptions lowers the request options onto the fairness.Option surface,
// filling the documented defaults for omitted interval parameters.
// Argument validation happens in NewAuditor.
func (o *auditOptions) toOptions(workers int) []fairness.Option {
	opts := []fairness.Option{
		fairness.WithAlpha(o.Alpha),
		fairness.WithWorkers(workers),
	}
	if o.Subsets != nil {
		opts = append(opts, fairness.WithSubsets(*o.Subsets))
	}
	if o.Simpson != nil {
		opts = append(opts, fairness.WithSimpsonScan(*o.Simpson))
	}
	if o.Seed != nil {
		opts = append(opts, fairness.WithSeed(*o.Seed))
	}
	if b := o.Bootstrap; b != nil {
		level := 0.95
		if b.Level != nil {
			level = *b.Level
		}
		opts = append(opts, fairness.WithBootstrap(b.Replicates, level))
	}
	if c := o.Credible; c != nil {
		level := 0.95
		if c.Level != nil {
			level = *c.Level
		}
		prior := 1.0
		if c.PriorAlpha != nil {
			prior = *c.PriorAlpha
		}
		opts = append(opts, fairness.WithCredible(c.Samples, prior, level))
	}
	if o.RepairTarget != 0 {
		opts = append(opts, fairness.WithRepairTarget(o.RepairTarget))
	}
	if len(o.Metrics) > 0 {
		opts = append(opts, fairness.WithMetrics(o.Metrics...))
	}
	return opts
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeAuditError answers a failed audit: 499 when the client went away
// (nginx's "client closed request", which mostly serves logs and tests:
// nobody is reading), 504 past the request's deadline, and 422 for a
// failure of the audit itself.
func writeAuditError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		writeError(w, 499, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}
