package main

// The closed-loop repair endpoints: POST /v1/repair computes a plan for
// a posted contingency table, POST /v1/monitors/{id}/repair computes
// and installs a plan from a live monitor's window, and
// POST /v1/monitors/{id}/decide applies the installed plan to batches
// of proposed decisions — making dfserve a serving-path decision
// gateway, not just a reporting service. Each decide batch feeds two
// streams: the raw proposals land in the main monitor (plans and alerts
// must track the mechanism's true rates — a plan recomputed from
// already-repaired decisions would systematically under-correct) and
// the repaired decisions land in a served shadow monitor, whose
// /report?stream=served proves the gateway's output meets the target.
// With auto_refresh armed, a threshold alert during a decide batch
// recomputes the plan from the current raw window in place.

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"

	fairness "repro"
)

// repairOptionsSpec mirrors the fairness.RepairOption surface as JSON.
// target_epsilon is required and pointer-typed so an explicit 0 (exact
// parity) is distinguishable from an omitted field.
type repairOptionsSpec struct {
	TargetEpsilon *float64 `json:"target_epsilon"`
	// Alpha is the estimator pseudo-count; for monitor plans it defaults
	// to the monitor's configured alpha.
	Alpha          *float64 `json:"alpha,omitempty"`
	MaxMovement    float64  `json:"max_movement,omitempty"`
	NoLevelingDown bool     `json:"no_leveling_down,omitempty"`
	Ladder         *bool    `json:"ladder,omitempty"`
	Seed           *uint64  `json:"seed,omitempty"`
}

// toOptions lowers the spec onto the fairness.RepairOption surface;
// argument validation happens in NewRepairer.
func (o *repairOptionsSpec) toOptions(workers int, defaultAlpha float64) []fairness.RepairOption {
	target := 0.0
	if o.TargetEpsilon != nil {
		target = *o.TargetEpsilon
	}
	alpha := defaultAlpha
	if o.Alpha != nil {
		alpha = *o.Alpha
	}
	opts := []fairness.RepairOption{
		fairness.WithTargetEpsilon(target),
		fairness.WithAlpha(alpha),
		fairness.WithWorkers(workers),
	}
	if o.MaxMovement != 0 {
		opts = append(opts, fairness.WithMaxMovement(o.MaxMovement))
	}
	if o.NoLevelingDown {
		opts = append(opts, fairness.WithLevelingDownGuard(true))
	}
	if o.Ladder != nil {
		opts = append(opts, fairness.WithRepairLadder(*o.Ladder))
	}
	if o.Seed != nil {
		opts = append(opts, fairness.WithSeed(*o.Seed))
	}
	return opts
}

// repairRequest is the POST /v1/repair body: the same space/counts/
// observations surface as /v1/audit, plus repair options.
type repairRequest struct {
	Space        []attrSpec        `json:"space"`
	Outcomes     []string          `json:"outcomes"`
	Counts       [][]float64       `json:"counts,omitempty"`
	Observations []observation     `json:"observations,omitempty"`
	Options      repairOptionsSpec `json:"options"`
}

// handleRepair computes a repair plan for one posted dataset —
// stateless, like POST /v1/audit.
func handleRepair(w http.ResponseWriter, r *http.Request, cfg serverConfig) {
	var req repairRequest
	if !decodeJSONBody(w, r, cfg.maxBody, &req, "request body") {
		return
	}
	if req.Options.TargetEpsilon == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("options.target_epsilon is required"))
		return
	}
	ar := auditRequest{Space: req.Space, Outcomes: req.Outcomes,
		Counts: req.Counts, Observations: req.Observations}
	counts, err := ar.buildCounts()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rep, err := fairness.NewRepairer(counts.Space(), counts.Outcomes(),
		req.Options.toOptions(cfg.workers, 0)...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := rep.Plan(r.Context(), counts)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := plan.RenderJSON(w); err != nil {
		log.Printf("dfserve: writing repair plan: %v", err)
	}
}

// livePlan is one installed repair plan: the compiled applier serving
// the decide hot path, the plan document, and the spec to recompute it
// from on auto-refresh. Installed plans are immutable; refreshes install
// a new livePlan with the next version.
type livePlan struct {
	version     int
	autoRefresh bool
	spec        repairOptionsSpec
	plan        *fairness.RepairPlan
	app         *fairness.Applier
	// tickets is the plan's decide ticket clock, held here (not inside
	// the applier) so decide batches claim their ticket base explicitly
	// and each batch's base can be written to the WAL: a restored plan
	// resumes the clock where the log left it, keeping the applier's
	// deterministic randomized rounding aligned across a crash.
	tickets atomic.Uint64
}

// monitorRepairRequest is the POST /v1/monitors/{id}/repair body: repair
// options plus the auto-refresh policy. auto_refresh arms in-place plan
// recomputation whenever a decide batch trips the monitor's watch (the
// monitor must have a threshold configured for it to ever fire).
type monitorRepairRequest struct {
	repairOptionsSpec
	AutoRefresh bool `json:"auto_refresh,omitempty"`
}

// monitorRepairResponse reports the installed plan. When the monitor has
// an armed watch, alert/effective_count report its current breach state
// — the condition that typically motivated this request.
type monitorRepairResponse struct {
	PlanVersion    int                  `json:"plan_version"`
	AutoRefresh    bool                 `json:"auto_refresh"`
	EffectiveCount *float64             `json:"effective_count,omitempty"`
	Alert          *alertReport         `json:"alert,omitempty"`
	Plan           *fairness.RepairPlan `json:"plan"`
}

// computePlan builds a repairer over the monitor's space and computes a
// plan from its current window. The bool return distinguishes option
// errors (client mistake, 400) from plan failures on the snapshot (422,
// e.g. a still-degenerate window).
func (e *monitorEntry) computePlan(ctx context.Context, spec *repairOptionsSpec, workers int) (*fairness.RepairPlan, *fairness.Applier, bool, error) {
	rep, err := fairness.NewRepairer(e.mon.Space(), e.cfg.Outcomes,
		spec.toOptions(workers, e.cfg.Alpha)...)
	if err != nil {
		return nil, nil, true, err
	}
	plan, err := rep.PlanMonitor(ctx, e.mon)
	if err != nil {
		return nil, nil, false, err
	}
	app, err := plan.Applier()
	if err != nil {
		return nil, nil, false, err
	}
	return plan, app, false, nil
}

// handleMonitorRepair computes a plan from the monitor's live window and
// installs it as the decide path's current plan.
func (r *registry) handleMonitorRepair(w http.ResponseWriter, req *http.Request) {
	e, ok := r.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no monitor %q", req.PathValue("id")))
		return
	}
	if !r.guardMutation(w) {
		return
	}
	var body monitorRepairRequest
	if !decodeJSONBody(w, req, r.cfg.maxBody, &body, "repair body") {
		return
	}
	if body.TargetEpsilon == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("target_epsilon is required"))
		return
	}
	plan, app, clientErr, err := e.computePlan(req.Context(), &body.repairOptionsSpec, r.cfg.workers)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if clientErr {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}

	e.refreshMu.Lock()
	if e.served.Load() == nil {
		// First install: create the served-stream shadow monitor (same
		// policy and estimator as the raw monitor), subject to the same
		// per-stream cell cap as the PUT — a monitor with an installed
		// plan stores two streams. It is stored before the plan, so any
		// decide that sees a plan also sees it.
		sv, _, err := e.cfg.build(r.cfg.maxMonitorCells)
		if err != nil {
			e.refreshMu.Unlock()
			writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("building served-stream monitor: %w", err))
			return
		}
		e.served.Store(sv)
	}
	version := 1
	if prev := e.live.Load(); prev != nil {
		version = prev.version + 1
	}
	lp := &livePlan{
		version:     version,
		autoRefresh: body.AutoRefresh,
		spec:        body.repairOptionsSpec,
		plan:        plan,
		app:         app,
	}
	if status, err := r.persistPlan(e, lp); err != nil {
		e.refreshMu.Unlock()
		writeError(w, status, err)
		return
	}
	e.refreshMu.Unlock()

	resp := monitorRepairResponse{
		PlanVersion: lp.version,
		AutoRefresh: lp.autoRefresh,
		Plan:        plan,
	}
	if e.watch != nil {
		// Report the breach state the plan was installed against; a
		// check failure (e.g. a degenerate window racing a reset) only
		// omits the diagnostic, it does not fail the install.
		if alert, eff, err := e.watch.Check(); err == nil {
			resp.EffectiveCount = &eff
			resp.Alert = e.alertReport(alert)
		}
	}
	writeJSON(w, http.StatusOK, resp)
	r.maybeSnapshot()
}

// persistPlan commits a plan-install record (when durable) and installs
// the plan as the entry's live plan. The WAL append happens before
// e.live.Store: any decide batch that sees this plan must append after
// it in the log, so replay always installs the plan before applying the
// decides that used it. The caller must hold e.refreshMu. The int
// return is the HTTP status for a non-nil error.
func (r *registry) persistPlan(e *monitorEntry, lp *livePlan) (int, error) {
	if r.store == nil {
		e.live.Store(lp)
		return 0, nil
	}
	planJSON, err := json.Marshal(lp.plan)
	if err != nil {
		return http.StatusInternalServerError, fmt.Errorf("encoding plan: %w", err)
	}
	rec, err := encodeJSONRecord(recPlanInstall, planRecord{
		ID:          e.id,
		Version:     lp.version,
		AutoRefresh: lp.autoRefresh,
		Spec:        lp.spec,
		Plan:        planJSON,
		Tickets:     lp.tickets.Load(),
	})
	if err != nil {
		return http.StatusInternalServerError, fmt.Errorf("encoding plan record: %w", err)
	}
	r.persistMu.RLock()
	defer r.persistMu.RUnlock()
	if cur, still := r.lookup(e.id); !still || cur != e {
		return http.StatusConflict, fmt.Errorf("monitor %q was concurrently replaced; retry", e.id)
	}
	if err := r.store.commit(rec); err != nil {
		return http.StatusServiceUnavailable,
			fmt.Errorf("server is in degraded read-only mode: %s", r.store.degraded())
	}
	e.live.Store(lp)
	return 0, nil
}

// decideResponse carries the repaired decisions and the closed-loop
// bookkeeping: the raw proposed batch is observed into the monitor
// (seen, effective_count — keeping plans calibrated against the
// mechanism's true rates), the repaired batch into the served shadow
// stream (served_seen), threshold state is evaluated per batch on the
// raw stream (alert), and with auto_refresh armed an alert recomputes
// the plan in place (plan_refreshed, new_plan_version).
type decideResponse struct {
	Decisions      []int        `json:"decisions"`
	Changed        int          `json:"changed"`
	Observed       int          `json:"observed"`
	Seen           int          `json:"seen"`
	ServedSeen     int          `json:"served_seen"`
	PlanVersion    int          `json:"plan_version"`
	EffectiveCount *float64     `json:"effective_count,omitempty"`
	Alert          *alertReport `json:"alert,omitempty"`
	PlanRefreshed  bool         `json:"plan_refreshed,omitempty"`
	NewPlanVersion int          `json:"new_plan_version,omitempty"`
	RefreshError   string       `json:"refresh_error,omitempty"`
}

// handleDecide applies the monitor's installed plan to one batch of
// proposed decisions — the serving hot path of the closed loop. The body
// is observe's compact form with the outcome column named "decisions"
// (outcome indices 0/1, 1 positive): {"groups":[…],"decisions":[…]} or
// the same pairs as application/x-df-batch, read and decoded by
// readBatch (batch.go). The raw batch lands in the main monitor (so
// alerting and plan refreshes track the mechanism itself, not the
// gateway's own corrections — a plan recomputed from already-repaired
// data would under-correct) and the repaired batch lands in the served
// stream, whose report proves what was served meets the target. Unlike
// observe, decide cannot splice a binary body into its WAL record: the
// durable record also carries the ticket base and the repaired column,
// which only exist after ApplyAt.
func (r *registry) handleDecide(w http.ResponseWriter, req *http.Request) {
	e, ok := r.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no monitor %q", req.PathValue("id")))
		return
	}
	if !r.guardMutation(w) {
		return
	}
	lp := e.live.Load()
	if lp == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("monitor %q has no repair plan installed; POST /v1/monitors/%s/repair first", e.id, e.id))
		return
	}
	// The served monitor is stored before any plan, so it is visible
	// whenever a plan is.
	served := e.served.Load()
	batch, ok := readBatch(w, req, r.cfg.maxBody, &decideForm,
		e.mon.Space().Size(), len(e.cfg.Outcomes))
	if !ok {
		return
	}
	defer putBatchScratch(batch)
	groups, decisions := batch.groups, batch.outcomes
	if len(groups) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty decide batch"))
		return
	}
	// ApplyAt validates the whole batch (group coverage, binary
	// decisions) before mutating anything; it repairs a copy so the raw
	// proposals remain for the monitor. The ticket base is claimed from
	// the plan's own clock (not the applier's) so it can be written to
	// the WAL: the record carries everything replay needs — ticket base,
	// raw and repaired decisions — without re-running the applier.
	repaired := make([]int, len(decisions))
	copy(repaired, decisions)
	n := uint64(len(groups))
	ticket := lp.tickets.Add(n) - n
	changed, err := lp.app.ApplyAt(ticket, groups, repaired)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Close the loop: raw proposals into the watched monitor, served
	// decisions into the shadow stream.
	var alert *fairness.Alert
	var effective *float64
	ingest := func() error {
		var err error
		if e.watch != nil {
			var eff float64
			alert, eff, err = e.watch.ObserveBatchChecked(groups, decisions)
			effective = &eff
		} else {
			err = e.mon.ObserveBatch(groups, decisions)
		}
		if err == nil {
			err = served.ObserveBatch(groups, repaired)
		}
		return err
	}
	if r.store != nil {
		r.persistMu.RLock()
		if cur, still := r.lookup(e.id); !still || cur != e {
			r.persistMu.RUnlock()
			writeError(w, http.StatusConflict,
				fmt.Errorf("monitor %q was concurrently replaced; retry", e.id))
			return
		}
		rec := encodeDecideRecord(e.id, ticket, groups, decisions, repaired)
		if err := r.store.commit(rec); err != nil {
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
		// ApplyAt already validated indices against the same space, so
		// this is a server-side inconsistency, not client input.
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	resp := decideResponse{
		Decisions:      repaired,
		Changed:        changed,
		Observed:       len(groups),
		Seen:           e.mon.Seen(),
		ServedSeen:     served.Seen(),
		PlanVersion:    lp.version,
		EffectiveCount: effective,
		Alert:          e.alertReport(alert),
	}
	if alert != nil && lp.autoRefresh {
		r.refreshPlan(req.Context(), e, lp, &resp)
	}
	writeJSON(w, http.StatusOK, resp)
	r.maybeSnapshot()
}

// refreshPlan recomputes the plan from the monitor's current window
// after an alert fired during a decide batch. The refresh mutex plus the
// version check make an alert storm across concurrent batches converge
// on a single recompute: whoever gets the lock first while the alerting
// plan is still installed refreshes it; everyone else reports the
// version they now see.
func (r *registry) refreshPlan(ctx context.Context, e *monitorEntry, lp *livePlan, resp *decideResponse) {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	cur := e.live.Load()
	if cur != lp {
		// A concurrent batch (or an explicit re-install) already moved
		// the plan on; don't stack another refresh on top of it.
		resp.NewPlanVersion = cur.version
		return
	}
	plan, app, _, err := e.computePlan(ctx, &lp.spec, r.cfg.workers)
	if err != nil {
		// The serving path keeps the old plan: a failed refresh (e.g. a
		// window that just reset to nothing) must not take the gateway
		// down; the error is surfaced for the operator.
		resp.RefreshError = err.Error()
		return
	}
	nl := &livePlan{
		version:     lp.version + 1,
		autoRefresh: lp.autoRefresh,
		spec:        lp.spec,
		plan:        plan,
		app:         app,
	}
	if _, err := r.persistPlan(e, nl); err != nil {
		// Same stance as a failed recompute: keep serving the old plan
		// and surface the problem instead of failing the batch.
		resp.RefreshError = err.Error()
		return
	}
	resp.PlanRefreshed = true
	resp.NewPlanVersion = nl.version
}
