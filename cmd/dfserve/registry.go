package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	fairness "repro"
)

// registry is the stateful half of dfserve: a set of named, long-lived
// streaming monitors. Each monitor is internally sharded
// (fairness.Monitor), so concurrent observe streams against one monitor
// scale with cores; the registry itself is only a read-mostly name
// table, taken with a read lock on the hot observe path.
type registry struct {
	cfg serverConfig

	mu       sync.RWMutex
	monitors map[string]*monitorEntry

	// store is the durability layer (persist.go); nil when the server
	// runs without -data-dir and the registry is purely in-memory.
	// persistMu orders WAL appends relative to their in-memory
	// application: mutations hold it shared around append+apply, while
	// snapshot capture (and entry-swapping PUT/DELETE) hold it
	// exclusively, so a captured (walSeq, state) pair is consistent.
	// Lock order: persistMu before mu.
	store     *durability
	persistMu sync.RWMutex
}

func newRegistry(cfg serverConfig) *registry {
	return &registry{cfg: cfg, monitors: make(map[string]*monitorEntry)}
}

// monitorEntry binds one configured monitor to its (optional) threshold
// watch and its (optional) installed repair plan. The configuration is
// immutable after creation — a PUT replaces the whole entry — so
// handlers touch it without the registry lock; only the live repair
// plan mutates, behind its own atomic pointer (decide hot path) and
// refresh mutex (plan recomputation).
type monitorEntry struct {
	id    string
	cfg   monitorSpec
	mon   *fairness.Monitor
	watch *fairness.Watch // non-nil iff the spec arms alerting (threshold or metrics)

	// live is the currently-installed repair plan applied by
	// POST .../decide; nil until POST .../repair installs one. Replacing
	// the entry (PUT) discards it along with the monitor state.
	live atomic.Pointer[livePlan]
	// served is the shadow monitor recording the decisions the gateway
	// actually served (post-repair), created when the first plan is
	// installed. The main monitor keeps recording the raw proposed
	// decisions — plans must be calibrated against the mechanism's true
	// rates, or a refresh computed from already-repaired data would
	// systematically under-correct — while the served stream proves what
	// went out the door meets the target (/report?stream=served).
	served atomic.Pointer[fairness.Monitor]
	// refreshMu serializes plan recomputation so one alert storm
	// produces one refreshed plan, not a thundering herd of them.
	refreshMu sync.Mutex
}

// monitorSpec is the PUT /v1/monitors/{id} body: the space and outcome
// vocabulary plus exactly one window policy — an exponential half-life
// or a (possibly bucketed) count window — and optional alerting.
type monitorSpec struct {
	Space    []attrSpec `json:"space"`
	Outcomes []string   `json:"outcomes"`
	// HalfLife selects exponential decay: the number of observations
	// after which an old observation's influence is halved.
	HalfLife float64 `json:"half_life,omitempty"`
	// Window selects a count window: tumbling when buckets is 0 or 1,
	// sliding otherwise.
	Window *windowSpec `json:"window,omitempty"`
	// Alpha is the Eq. 7 smoothing applied when reporting ε.
	Alpha float64 `json:"alpha"`
	// Threshold, when positive, arms alerting: observe responses carry
	// an alert whenever the running ε exceeds it (after MinEffective
	// mass has accumulated).
	Threshold    float64 `json:"threshold,omitempty"`
	MinEffective float64 `json:"min_effective,omitempty"`
	// Metrics arms additional per-metric alerting: each entry pairs a
	// registry key (fairness.MetricKeys) with its own limit, breached on
	// the metric's unfair side. Threshold may be omitted when metrics
	// are configured, disabling the ε check.
	Metrics []metricThresholdSpec `json:"metrics,omitempty"`
}

// metricThresholdSpec is one per-metric alert limit in a monitorSpec.
type metricThresholdSpec struct {
	Key       string  `json:"key"`
	Threshold float64 `json:"threshold"`
}

type windowSpec struct {
	Size    int `json:"size"`
	Buckets int `json:"buckets,omitempty"`
}

// policyLabel renders the spec's window policy for listings.
func (s *monitorSpec) policyLabel() string {
	switch {
	case s.Window != nil && s.Window.Buckets > 1:
		return fmt.Sprintf("sliding(window=%d,buckets=%d)", s.Window.Size, s.Window.Buckets)
	case s.Window != nil:
		return fmt.Sprintf("tumbling(window=%d)", s.Window.Size)
	default:
		return fmt.Sprintf("exponential(half_life=%g)", s.HalfLife)
	}
}

// build validates the spec and constructs its monitor (and watch).
func (s *monitorSpec) build(maxCells int) (*fairness.Monitor, *fairness.Watch, error) {
	if (s.HalfLife != 0) == (s.Window != nil) {
		return nil, nil, fmt.Errorf("exactly one of half_life or window is required")
	}
	if s.Window != nil && s.Window.Buckets < 0 {
		return nil, nil, fmt.Errorf("window.buckets must be non-negative, got %d", s.Window.Buckets)
	}
	if len(s.Space) == 0 {
		return nil, nil, fmt.Errorf("space: need at least one protected attribute")
	}
	attrs := make([]fairness.Attr, len(s.Space))
	for i, a := range s.Space {
		attrs[i] = fairness.Attr{Name: a.Name, Values: a.Values}
	}
	space, err := fairness.NewSpace(attrs...)
	if err != nil {
		return nil, nil, err
	}
	if maxCells > 0 {
		// The stored cells are replicated per ingest shard (and per
		// bucket for sliding windows), so the cap compares against the
		// real allocation, not just the logical table size. Each factor
		// is checked against the cap before it multiplies, so the product
		// never passes maxCells and cannot wrap past math.MaxInt.
		factors := []int{len(s.Outcomes), fairness.MonitorShards()}
		if s.Window != nil && s.Window.Buckets > 1 {
			factors = append(factors, s.Window.Buckets)
		}
		cells := space.Size()
		for _, f := range factors {
			if f > 0 && cells > maxCells/f {
				return nil, nil, fmt.Errorf("monitor needs more stored cells (groups × outcomes × shards × buckets) than this server's limit of %d", maxCells)
			}
			cells *= f
		}
	}
	var mon *fairness.Monitor
	switch {
	case s.Window != nil && s.Window.Buckets > 1:
		mon, err = fairness.NewSlidingMonitor(space, s.Outcomes, s.Window.Size, s.Window.Buckets, s.Alpha)
	case s.Window != nil:
		mon, err = fairness.NewTumblingMonitor(space, s.Outcomes, s.Window.Size, s.Alpha)
	default:
		mon, err = fairness.NewMonitor(space, s.Outcomes, s.HalfLife, s.Alpha)
	}
	if err != nil {
		return nil, nil, err
	}
	var watch *fairness.Watch
	if s.Threshold != 0 || s.MinEffective != 0 || len(s.Metrics) > 0 {
		thresholds := make([]fairness.MetricThreshold, len(s.Metrics))
		for i, mt := range s.Metrics {
			m, err := fairness.MetricByKey(mt.Key)
			if err != nil {
				return nil, nil, fmt.Errorf("metrics[%d]: %w", i, err)
			}
			thresholds[i] = fairness.MetricThreshold{Metric: m, Threshold: mt.Threshold}
		}
		watch, err = fairness.NewWatch(mon, s.Threshold, s.MinEffective, thresholds...)
		if err != nil {
			return nil, nil, err
		}
	}
	return mon, watch, nil
}

func validMonitorID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("monitor id must be 1-128 characters")
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("monitor id may only contain letters, digits, '-', '_' and '.'")
		}
	}
	return nil
}

// handlePut creates or replaces a monitor. Replacing resets its state.
// The put record is committed to the WAL before the entry is installed
// — but only after the same limit check replay will never re-run, so a
// record in the log always applies cleanly.
func (r *registry) handlePut(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if err := validMonitorID(id); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !r.guardMutation(w) {
		return
	}
	var spec monitorSpec
	if !decodeJSONBody(w, req, r.cfg.maxBody, &spec, "monitor config") {
		return
	}
	mon, watch, err := spec.build(r.cfg.maxMonitorCells)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entry := &monitorEntry{id: id, cfg: spec, mon: mon, watch: watch}

	r.persistMu.Lock()
	r.mu.Lock()
	_, replaced := r.monitors[id]
	if !replaced && r.cfg.maxMonitors > 0 && len(r.monitors) >= r.cfg.maxMonitors {
		r.mu.Unlock()
		r.persistMu.Unlock()
		writeError(w, http.StatusConflict,
			fmt.Errorf("monitor count limit %d reached", r.cfg.maxMonitors))
		return
	}
	if r.store != nil {
		rec, err := encodeJSONRecord(recMonitorPut, putRecord{ID: id, Spec: spec})
		if err == nil {
			err = r.store.commit(rec)
		}
		if err != nil {
			r.mu.Unlock()
			r.persistMu.Unlock()
			writeDegraded(w, r.store.degraded())
			return
		}
	}
	r.monitors[id] = entry
	r.mu.Unlock()
	r.persistMu.Unlock()

	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, entry.stats())
	r.maybeSnapshot()
}

// lookup fetches an entry under the read lock.
func (r *registry) lookup(id string) (*monitorEntry, bool) {
	r.mu.RLock()
	e, ok := r.monitors[id]
	r.mu.RUnlock()
	return e, ok
}

func (r *registry) handleGet(w http.ResponseWriter, req *http.Request) {
	e, ok := r.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no monitor %q", req.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, e.stats())
}

func (r *registry) handleDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if !r.guardMutation(w) {
		return
	}
	r.persistMu.Lock()
	r.mu.Lock()
	_, ok := r.monitors[id]
	if !ok {
		r.mu.Unlock()
		r.persistMu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("no monitor %q", id))
		return
	}
	if r.store != nil {
		rec, err := encodeJSONRecord(recMonitorDelete, deleteRecord{ID: id})
		if err == nil {
			err = r.store.commit(rec)
		}
		if err != nil {
			r.mu.Unlock()
			r.persistMu.Unlock()
			writeDegraded(w, r.store.degraded())
			return
		}
	}
	delete(r.monitors, id)
	r.mu.Unlock()
	r.persistMu.Unlock()
	w.WriteHeader(http.StatusNoContent)
	r.maybeSnapshot()
}

func (r *registry) handleList(w http.ResponseWriter, req *http.Request) {
	r.mu.RLock()
	entries := make([]*monitorEntry, 0, len(r.monitors))
	for _, e := range r.monitors {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	out := struct {
		Monitors []monitorStats `json:"monitors"`
	}{Monitors: make([]monitorStats, len(entries))}
	for i, e := range entries {
		out.Monitors[i] = e.stats()
	}
	writeJSON(w, http.StatusOK, out)
}

// monitorStats is the listing/GET view of one monitor.
type monitorStats struct {
	ID           string  `json:"id"`
	Policy       string  `json:"policy"`
	Alpha        float64 `json:"alpha"`
	Threshold    float64 `json:"threshold,omitempty"`
	MinEffective float64 `json:"min_effective,omitempty"`
	// Metrics echoes the per-metric alert limits armed on this monitor.
	Metrics        []metricThresholdSpec `json:"metrics,omitempty"`
	Seen           int                   `json:"seen"`
	EffectiveCount float64               `json:"effective_count"`
	// PlanVersion is the installed repair plan's version (0 = none);
	// ServedSeen counts decisions recorded on the served (post-repair)
	// stream.
	PlanVersion int `json:"plan_version,omitempty"`
	ServedSeen  int `json:"served_seen,omitempty"`
}

func (e *monitorEntry) stats() monitorStats {
	s := monitorStats{
		ID:             e.id,
		Policy:         e.cfg.policyLabel(),
		Alpha:          e.cfg.Alpha,
		Threshold:      e.cfg.Threshold,
		MinEffective:   e.cfg.MinEffective,
		Metrics:        e.cfg.Metrics,
		Seen:           e.mon.Seen(),
		EffectiveCount: e.mon.EffectiveCount(),
	}
	if lp := e.live.Load(); lp != nil {
		s.PlanVersion = lp.version
	}
	if sv := e.served.Load(); sv != nil {
		s.ServedSeen = sv.Seen()
	}
	return s
}

// observeRequest is a POST /v1/monitors/{id}/observe body that carries
// the named form, {"observations": [{"group": {...}, "outcome": "..."},
// ...]}, possibly next to the compact form's parallel groups/outcomes
// index arrays (group indices enumerate the space row-major with the
// last attribute varying fastest, as everywhere else). Label maps are
// on no hot path, so such a body is decoded with encoding/json; bodies
// with the compact form alone never get here (decodeJSONBatch).
type observeRequest struct {
	Observations []observation `json:"observations"`
	Groups       jsonIndices   `json:"groups"`
	Outcomes     jsonIndices   `json:"outcomes"`
}

// decodeNamed decodes a JSON observe body that carries the named form,
// as json.Decoder with DisallowUnknownFields always did, into the
// scratch.
func (s *batchScratch) decodeNamed() error {
	var req observeRequest
	if err := decodeOne(bytes.NewReader(s.body), &req); err != nil {
		return err
	}
	s.observations, s.groups, s.outcomes = req.Observations, req.Groups, req.Outcomes
	return nil
}

// observeResponse acknowledges one ingested batch. effective_count is
// present only on monitors with an armed threshold — it falls out of the
// per-batch check for free there, while computing it for unwatched
// monitors would put a full shard merge on the hot path (GET
// /v1/monitors/{id} reports it on demand).
type observeResponse struct {
	Observed       int          `json:"observed"`
	Seen           int          `json:"seen"`
	EffectiveCount *float64     `json:"effective_count,omitempty"`
	Alert          *alertReport `json:"alert,omitempty"`
}

// alertReport encodes ε with the report schema's JSONFloat convention:
// an all-or-nothing disparity measures ε = +Inf (still very much above
// any threshold) and must serialize as "inf", not break the response.
// Metric names the registry key when a per-metric threshold fired (the
// value is then that metric's, not ε); it is empty for the ε check.
type alertReport struct {
	Metric       string             `json:"metric,omitempty"`
	Epsilon      fairness.JSONFloat `json:"epsilon"`
	Threshold    float64            `json:"threshold"`
	Outcome      string             `json:"outcome"`
	MostFavored  string             `json:"most_favored"`
	LeastFavored string             `json:"least_favored"`
	SeenAt       int                `json:"seen_at"`
}

// handleObserve ingests one batch of decisions — the hot path. The batch
// is decoded and fully validated before anything else: a record must
// never reach the WAL unless replaying it will succeed, so the bounds
// check that ObserveBatch would do runs up front, then the durable
// append happens (under the shared persist lock) before the in-memory
// apply and the acknowledgment. When the monitor has a threshold, one ε
// check runs per batch (not per observation). readBatch (batch.go) reads
// the body once and decodes either wire form, JSON or the compact
// application/x-df-batch, into pooled scratch; a binary body's bytes
// double as the WAL record tail, so the durable path never re-encodes
// them.
func (r *registry) handleObserve(w http.ResponseWriter, req *http.Request) {
	e, ok := r.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no monitor %q", req.PathValue("id")))
		return
	}
	batch, ok := readBatch(w, req, r.cfg.maxBody, &observeForm,
		e.mon.Space().Size(), len(e.cfg.Outcomes))
	if !ok {
		return
	}
	defer putBatchScratch(batch)
	groups, outcomes, err := e.encode(batch)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// The unwatched path is pure sharded ingest: no snapshot merge, no
	// reporting lock. A watched monitor pays one incremental threshold
	// check per batch — a drain of the cells the batch touched, not a
	// shard merge — whose effective mass the response reuses.
	var alert *fairness.Alert
	var effective *float64
	ingest := func() error {
		if e.watch != nil {
			var eff float64
			var err error
			alert, eff, err = e.watch.ObserveBatchChecked(groups, outcomes)
			effective = &eff
			return err
		}
		return e.mon.ObserveBatch(groups, outcomes)
	}
	if r.store != nil {
		if !r.guardMutation(w) {
			return
		}
		r.persistMu.RLock()
		if cur, still := r.lookup(e.id); !still || cur != e {
			r.persistMu.RUnlock()
			writeError(w, http.StatusConflict,
				fmt.Errorf("monitor %q was concurrently replaced; retry", e.id))
			return
		}
		if err := r.store.commit(batch.observeRecord(e.id, groups, outcomes)); err != nil {
			r.persistMu.RUnlock()
			writeDegraded(w, r.store.degraded())
			return
		}
		err = ingest()
		r.persistMu.RUnlock()
	} else {
		err = ingest()
	}
	if err != nil {
		// The batch was bounds-checked above, so this is a server-side
		// inconsistency, not client input.
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	resp := observeResponse{
		Observed:       len(groups),
		Seen:           e.mon.Seen(),
		EffectiveCount: effective,
	}
	resp.Alert = e.alertReport(alert)
	writeJSON(w, http.StatusOK, resp)
	r.maybeSnapshot()
}

// alertReport renders a threshold crossing with human-readable labels;
// nil in, nil out, so handlers can assign unconditionally.
func (e *monitorEntry) alertReport(alert *fairness.Alert) *alertReport {
	if alert == nil {
		return nil
	}
	space := e.mon.Space()
	return &alertReport{
		Metric:       alert.Metric,
		Epsilon:      fairness.JSONFloat(alert.Epsilon),
		Threshold:    alert.Threshold,
		Outcome:      e.cfg.Outcomes[alert.Witness.Outcome],
		MostFavored:  space.Label(alert.Witness.GroupHi),
		LeastFavored: space.Label(alert.Witness.GroupLo),
		SeenAt:       alert.SeenAt,
	}
}

// encode resolves a decoded observe body to index arrays: the compact
// form as readBatch decoded and validated it, or the named form lowered
// through the space.
func (e *monitorEntry) encode(s *batchScratch) ([]int, []int, error) {
	named := len(s.observations) > 0
	indexed := len(s.groups) > 0 // readBatch matched the two lengths
	switch {
	case named && indexed:
		return nil, nil, fmt.Errorf("provide observations or groups/outcomes arrays, not both")
	case named:
		space := e.mon.Space()
		outIdx := make(map[string]int, len(e.cfg.Outcomes))
		for i, o := range e.cfg.Outcomes {
			outIdx[o] = i
		}
		groups := make([]int, len(s.observations))
		outcomes := make([]int, len(s.observations))
		for i, obs := range s.observations {
			g, err := space.IndexByValues(obs.Group)
			if err != nil {
				return nil, nil, fmt.Errorf("observations[%d]: %w", i, err)
			}
			y, ok := outIdx[obs.Outcome]
			if !ok {
				return nil, nil, fmt.Errorf("observations[%d]: unknown outcome %q", i, obs.Outcome)
			}
			groups[i] = g
			outcomes[i] = y
		}
		return groups, outcomes, nil
	case indexed:
		return s.groups, s.outcomes, nil
	default:
		return nil, nil, fmt.Errorf("empty observe batch")
	}
}

// handleReport snapshots the monitor and runs the full audit pipeline
// over it, returning the same versioned Report as POST /v1/audit. Query
// parameters request optional sections: bootstrap=N (window policies
// only — exponential snapshots are non-integral), credible=N,
// prior_alpha, level, seed, subsets=false, and metrics=k1,k2 for
// additional per-metric sections (fairness.MetricKeys). stream=served
// audits the post-repair served stream instead of the raw proposed
// decisions.
func (r *registry) handleReport(w http.ResponseWriter, req *http.Request) {
	e, ok := r.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no monitor %q", req.PathValue("id")))
		return
	}
	mon := e.mon
	switch req.URL.Query().Get("stream") {
	case "", "raw":
	case "served":
		sv := e.served.Load()
		if sv == nil {
			writeError(w, http.StatusConflict,
				fmt.Errorf("monitor %q has no served stream; install a repair plan and serve /decide batches first", e.id))
			return
		}
		mon = sv
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("stream must be %q or %q", "raw", "served"))
		return
	}
	opts, err := reportOptions(req, r.cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Distinguish bad option arguments (a client mistake, 400) from audit
	// failures on the snapshot (422): Monitor.Audit surfaces both through
	// one error, so validate the configuration separately first.
	if _, err := fairness.NewAuditor(e.mon.Space(), e.cfg.Outcomes,
		append([]fairness.Option{fairness.WithAlpha(e.cfg.Alpha)}, opts...)...); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Audit's subset ladders (report?subsets=true, the default) come from
	// the monitor's incrementally-maintained subset marginals on the
	// window policies, so their latency is independent of the lattice
	// size once warm; exponential monitors walk the snapshot ladder.
	report, err := mon.Audit(req.Context(), opts...)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			writeError(w, 499, err)
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, err)
		default:
			writeError(w, http.StatusUnprocessableEntity, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := report.RenderJSON(w); err != nil {
		log.Printf("dfserve: writing report: %v", err)
	}
}

// reportOptions parses the report query parameters onto the
// fairness.Option surface; argument validation happens in NewAuditor.
func reportOptions(req *http.Request, cfg serverConfig) ([]fairness.Option, error) {
	q := req.URL.Query()
	opts := []fairness.Option{fairness.WithWorkers(cfg.workers)}
	level := 0.95
	if s := q.Get("level"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("level: %w", err)
		}
		level = v
	}
	if s := q.Get("bootstrap"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bootstrap: %w", err)
		}
		if cfg.maxResamples > 0 && n > cfg.maxResamples {
			return nil, fmt.Errorf("bootstrap %d exceeds this server's limit of %d", n, cfg.maxResamples)
		}
		opts = append(opts, fairness.WithBootstrap(n, level))
	}
	if s := q.Get("credible"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("credible: %w", err)
		}
		if cfg.maxResamples > 0 && n > cfg.maxResamples {
			return nil, fmt.Errorf("credible %d exceeds this server's limit of %d", n, cfg.maxResamples)
		}
		prior := 1.0
		if ps := q.Get("prior_alpha"); ps != "" {
			v, err := strconv.ParseFloat(ps, 64)
			if err != nil {
				return nil, fmt.Errorf("prior_alpha: %w", err)
			}
			prior = v
		}
		opts = append(opts, fairness.WithCredible(n, prior, level))
	}
	if s := q.Get("seed"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed: %w", err)
		}
		opts = append(opts, fairness.WithSeed(v))
	}
	if s := q.Get("subsets"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return nil, fmt.Errorf("subsets: %w", err)
		}
		opts = append(opts, fairness.WithSubsets(v))
	}
	if s := q.Get("metrics"); s != "" {
		opts = append(opts, fairness.WithMetrics(strings.Split(s, ",")...))
	}
	return opts, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("dfserve: writing response: %v", err)
	}
}
