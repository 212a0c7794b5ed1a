package fairness

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/bayes"
	"repro/internal/core"
	"repro/internal/repair"
	"repro/internal/resample"
	"repro/internal/rng"
)

// auditConfig is the resolved option set of an Auditor. Options validate
// their arguments at construction time, so a successfully built Auditor
// never fails on configuration during Run.
type auditConfig struct {
	alpha          float64
	subsets        bool
	simpson        bool
	bootstrapB     int
	bootstrapLevel float64
	credibleB      int
	credibleAlpha  float64
	credibleLevel  float64
	repairTarget   float64
	seed           uint64
	workers        int
	eqOdds         *core.LabeledCounts
	metrics        []core.Metric
}

// Option configures an Auditor. Options are applied in order by
// NewAuditor and report invalid arguments immediately (the descriptive
// error surfaces from NewAuditor, not from deep inside a Run).
//
// Option is an interface rather than a function type so that the
// settings shared between the package's subsystems — WithAlpha,
// WithSeed, WithWorkers — can be passed to both NewAuditor and
// NewRepairer without duplicate constructors: those return a
// SharedOption, which satisfies Option and RepairOption alike.
type Option interface {
	applyAudit(*auditConfig) error
}

// auditOption adapts a plain configuration function to the Option
// interface; every auditor-only option is one of these.
type auditOption func(*auditConfig) error

func (f auditOption) applyAudit(c *auditConfig) error { return f(c) }

// SharedOption is a configuration setting understood by every subsystem
// that accepts it: it satisfies both Option (NewAuditor) and
// RepairOption (NewRepairer). WithAlpha, WithSeed and WithWorkers return
// SharedOptions, so one option vocabulary configures the whole package.
type SharedOption struct {
	audit  func(*auditConfig) error
	repair func(*repairConfig) error
}

func (o SharedOption) applyAudit(c *auditConfig) error {
	if o.audit == nil {
		return fmt.Errorf("fairness: zero SharedOption; use WithAlpha/WithSeed/WithWorkers")
	}
	return o.audit(c)
}

func (o SharedOption) applyRepair(c *repairConfig) error {
	if o.repair == nil {
		return fmt.Errorf("fairness: zero SharedOption; use WithAlpha/WithSeed/WithWorkers")
	}
	return o.repair(c)
}

// WithAlpha selects the estimator: 0 for the empirical Eq. 6 estimator,
// alpha > 0 for the Dirichlet-smoothed Eq. 7 estimator.
func WithAlpha(alpha float64) SharedOption {
	check := func() error {
		if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return fmt.Errorf("fairness: WithAlpha(%v): alpha must be finite and >= 0", alpha)
		}
		return nil
	}
	return SharedOption{
		audit: func(c *auditConfig) error {
			if err := check(); err != nil {
				return err
			}
			c.alpha = alpha
			return nil
		},
		repair: func(c *repairConfig) error {
			if err := check(); err != nil {
				return err
			}
			c.alpha = alpha
			return nil
		},
	}
}

// WithSubsets controls whether every nonempty subset of the protected
// attributes is audited (the paper's Table 2 ladder; the default) or
// only the full intersection.
func WithSubsets(on bool) Option {
	return auditOption(func(c *auditConfig) error { c.subsets = on; return nil })
}

// WithSimpsonScan controls Simpson's-paradox reversal scanning. The scan
// applies only to two-attribute spaces and is on by default.
func WithSimpsonScan(on bool) Option {
	return auditOption(func(c *auditConfig) error { c.simpson = on; return nil })
}

// WithBootstrap requests a percentile bootstrap confidence interval for
// the full-intersection ε with b replicates at the given confidence
// level. b must be positive and level strictly inside (0, 1) — an
// out-of-range level is rejected here rather than producing nonsense
// quantiles downstream.
func WithBootstrap(b int, level float64) Option {
	return auditOption(func(c *auditConfig) error {
		if b <= 0 {
			return fmt.Errorf("fairness: WithBootstrap(%d, %v): need at least one replicate", b, level)
		}
		if !(level > 0 && level < 1) {
			return fmt.Errorf("fairness: WithBootstrap(%d, %v): confidence level must be in (0,1)", b, level)
		}
		c.bootstrapB = b
		c.bootstrapLevel = level
		return nil
	})
}

// WithCredible requests a Bayesian credible interval for ε from b
// posterior samples of the Dirichlet-multinomial model with symmetric
// prior pseudo-count priorAlpha > 0, at the given credible level in
// (0, 1).
func WithCredible(b int, priorAlpha, level float64) Option {
	return auditOption(func(c *auditConfig) error {
		if b <= 0 {
			return fmt.Errorf("fairness: WithCredible(%d, %v, %v): need at least one sample", b, priorAlpha, level)
		}
		if !(priorAlpha > 0) || math.IsInf(priorAlpha, 0) {
			return fmt.Errorf("fairness: WithCredible(%d, %v, %v): prior alpha must be positive and finite", b, priorAlpha, level)
		}
		if !(level > 0 && level < 1) {
			return fmt.Errorf("fairness: WithCredible(%d, %v, %v): credible level must be in (0,1)", b, priorAlpha, level)
		}
		c.credibleB = b
		c.credibleAlpha = priorAlpha
		c.credibleLevel = level
		return nil
	})
}

// WithRepairTarget requests a minimal-movement repair plan to the target
// ε > 0. The plan is only produced for binary outcomes; on other
// outcome counts the section is omitted.
func WithRepairTarget(eps float64) Option {
	return auditOption(func(c *auditConfig) error {
		if !(eps > 0) || math.IsInf(eps, 0) {
			return fmt.Errorf("fairness: WithRepairTarget(%v): target epsilon must be positive and finite", eps)
		}
		c.repairTarget = eps
		return nil
	})
}

// WithSeed sets the seed driving the stochastic machinery: bootstrap
// resampling and posterior sampling for an Auditor, decision
// randomization for a Repairer's plans. Outputs are deterministic in
// (inputs, options, seed) regardless of GOMAXPROCS. The default seed
// is 1.
func WithSeed(seed uint64) SharedOption {
	return SharedOption{
		audit:  func(c *auditConfig) error { c.seed = seed; return nil },
		repair: func(c *repairConfig) error { c.seed = seed; return nil },
	}
}

// WithWorkers caps the worker-pool size used by the parallel fan-outs
// (bootstrap/posterior resampling, the repair subset ladder); 0 (the
// default) means one worker per CPU. A service handling concurrent
// requests can use this to bound each request's share of the machine.
func WithWorkers(n int) SharedOption {
	check := func() error {
		if n < 0 {
			return fmt.Errorf("fairness: WithWorkers(%d): worker count must be >= 0", n)
		}
		return nil
	}
	return SharedOption{
		audit: func(c *auditConfig) error {
			if err := check(); err != nil {
				return err
			}
			c.workers = n
			return nil
		},
		repair: func(c *repairConfig) error {
			if err := check(); err != nil {
				return err
			}
			c.workers = n
			return nil
		},
	}
}

// WithEqualizedOdds adds the equalized-odds analogue of DF (§7.1) over
// the given labeled counts to the report: the per-true-label-stratum ε
// and its maximum, under the auditor's estimator alpha. The labeled
// counts must share the auditor's protected space and outcome labels.
// The counts are deep-copied, preserving the Auditor's immutability: a
// caller that keeps mutating lc afterwards does not affect (or race
// with) later Run calls.
func WithEqualizedOdds(lc *LabeledCounts) Option {
	return auditOption(func(c *auditConfig) error {
		if lc == nil {
			return fmt.Errorf("fairness: WithEqualizedOdds(nil)")
		}
		c.eqOdds = lc.Clone()
		return nil
	})
}

// Auditor is the front door of the package: a reusable, concurrency-safe
// audit pipeline bound to one protected-attribute space and outcome
// vocabulary. Build it once with NewAuditor and call Run per dataset —
// every analysis the options request (ε ladder, witnesses,
// interpretation, bootstrap and credible intervals, Simpson reversals,
// repair plan, equalized odds) lands in a single versioned Report.
//
// An Auditor is immutable after construction; concurrent Run calls are
// safe and each gets its own scratch state.
type Auditor struct {
	space    *core.Space
	outcomes []string
	cfg      auditConfig
}

// NewAuditor builds an auditor over the given protected space and
// outcome labels. Option arguments are validated here: the first invalid
// option aborts construction with a descriptive error.
func NewAuditor(space *Space, outcomes []string, opts ...Option) (*Auditor, error) {
	if space == nil {
		return nil, fmt.Errorf("fairness: NewAuditor: nil space")
	}
	if len(outcomes) < 2 {
		return nil, fmt.Errorf("fairness: NewAuditor: need at least two outcomes, got %d", len(outcomes))
	}
	cfg := auditConfig{
		subsets: true,
		simpson: true,
		seed:    1,
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("fairness: NewAuditor: nil option")
		}
		if err := opt.applyAudit(&cfg); err != nil {
			return nil, err
		}
	}
	if lc := cfg.eqOdds; lc != nil {
		if !sameAttrs(space, lc.Space()) || !sameStrings(outcomes, lc.Outcomes()) {
			return nil, fmt.Errorf("fairness: WithEqualizedOdds: labeled counts do not match the auditor's space/outcomes")
		}
	}
	for _, m := range cfg.metrics {
		if err := m.Applicable(space, outcomes); err != nil {
			return nil, fmt.Errorf("fairness: metric %s: %w", m.Key(), err)
		}
	}
	return &Auditor{
		space:    space,
		outcomes: append([]string(nil), outcomes...),
		cfg:      cfg,
	}, nil
}

// MustAuditor is NewAuditor but panics on error; for tests and literals.
func MustAuditor(space *Space, outcomes []string, opts ...Option) *Auditor {
	a, err := NewAuditor(space, outcomes, opts...)
	if err != nil {
		panic(err)
	}
	return a
}

// Run audits one contingency table and returns the complete report. The
// counts must be over the auditor's space and outcomes. ctx must be
// non-nil; it is threaded through the parallel bootstrap/posterior
// engines, so canceling it makes an in-flight Run return promptly with
// ctx.Err(). Callers without a deadline pass context.Background().
func (a *Auditor) Run(ctx context.Context, counts *Counts) (*Report, error) {
	return a.run(ctx, counts, nil, "", "")
}

// metrics is the list every engine of a report scores: ε first, then
// the requested metrics in request order.
func (a *Auditor) metrics() []core.Metric {
	return append([]core.Metric{core.DFEpsilon}, a.cfg.metrics...)
}

// run audits counts. ladders, when non-nil, holds precomputed subset
// ladders indexed like a.metrics(), as a streaming monitor maintains
// them incrementally; a nil entry, and every entry when ladders is nil,
// is measured by one lattice walk over counts. A precomputed ladder must
// have been measured over the same counts and estimator alpha —
// Monitor.Audit reads both under one lock hold. ladderSource and
// ladderFallback fill the report fields of the same names.
func (a *Auditor) run(ctx context.Context, counts *Counts, ladders [][]core.SubsetMetric, ladderSource, ladderFallback string) (*Report, error) {
	if ctx == nil {
		return nil, fmt.Errorf("fairness: Auditor.Run: nil ctx (pass context.Background() if no deadline applies)")
	}
	if counts == nil {
		return nil, fmt.Errorf("fairness: Auditor.Run: nil counts")
	}
	if !sameAttrs(a.space, counts.Space()) || !sameStrings(a.outcomes, counts.Outcomes()) {
		return nil, fmt.Errorf("fairness: Auditor.Run: counts do not match the auditor's space/outcomes")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	cfg := a.cfg
	toCPT := func(c *core.Counts) (*core.CPT, error) {
		if cfg.alpha > 0 {
			return c.Smoothed(cfg.alpha, false)
		}
		return c.Empirical(), nil
	}
	estimator := "empirical (Eq. 6)"
	if cfg.alpha > 0 {
		estimator = fmt.Sprintf("Dirichlet-smoothed, alpha=%g (Eq. 7)", cfg.alpha)
	}
	// Marginalization preserves outcome labels, so one copy serves every
	// ladder row (Counts.Outcomes copies on each call).
	outcomes := counts.Outcomes()
	space := counts.Space()

	rep := &Report{
		SchemaVersion:        ReportSchemaVersion,
		Estimator:            estimator,
		Alpha:                JSONFloat(cfg.alpha),
		Observations:         JSONFloat(counts.Total()),
		LadderSource:         ladderSource,
		LadderFallbackReason: ladderFallback,
	}

	fullCPT, err := toCPT(counts)
	if err != nil {
		return nil, err
	}
	// Each requested metric gets the full ε treatment: value + witness on
	// the full intersection, the subset ladder, and whatever uncertainty
	// the options request. The ladder walk, the bootstrap and the
	// posterior engine each run once over [ε] + cfg.metrics, and
	// core.EvalMetrics scores every lattice node, replicate table and
	// posterior draw with one validated scan, calling Eval only for
	// metrics without an extrema form.
	metrics := a.metrics()
	values := make([]core.MetricResult, len(metrics))
	x := core.NewRateExtrema(len(outcomes))
	if err := core.EvalMetrics(metrics, fullCPT, &x, values); err != nil {
		if errors.Is(err, core.ErrDegenerateSupport) {
			return nil, err // the table's own failure, as core.Epsilon reports it
		}
		return nil, fmt.Errorf("fairness: %w", err)
	}
	full := core.EpsilonResult{Epsilon: values[0].Value, Witness: values[0].Witness, Finite: values[0].Finite}
	rep.Epsilon = JSONFloat(full.Epsilon)
	rep.Finite = full.Finite
	rep.Witness = witnessLabels(space, outcomes, full.Witness)
	interp := core.Interpret(full.Epsilon)
	rep.Interpretation = ReportInterpretation{
		MaxUtilityFactor:               JSONFloat(interp.MaxUtilityFactor),
		HighFairnessRegime:             interp.HighFairnessRegime,
		StrongerThanRandomizedResponse: interp.StrongerThanRandomizedResponse,
	}
	rep.SubsetBound = JSONFloat(core.SubsetBound(full))

	for j, m := range cfg.metrics {
		res := values[j+1]
		rep.Metrics = append(rep.Metrics, MetricReport{
			Key:           m.Key(),
			Description:   m.Describe(),
			HigherIsWorse: m.HigherIsWorse(),
			Value:         JSONFloat(res.Value),
			Finite:        res.Finite,
			Witness:       witnessLabels(space, outcomes, res.Witness),
		})
	}

	if cfg.subsets {
		// The ladder walk shares marginalization work along the lattice
		// (each subset's counts derived from a one-attribute-larger
		// parent) instead of re-aggregating the full table 2^p times.
		// Ladders the caller already maintains incrementally arrive
		// precomputed, and only the other metrics walk.
		if ladders == nil {
			ladders = make([][]core.SubsetMetric, len(metrics))
		}
		var walked []core.Metric
		for j, m := range metrics {
			if ladders[j] == nil {
				walked = append(walked, m)
			}
		}
		rest, err := core.MetricSubsetsCounts(walked, counts, cfg.alpha)
		if err != nil {
			return nil, err
		}
		for j := range ladders {
			if ladders[j] == nil {
				ladders[j], rest = rest[0], rest[1:]
			}
			core.SortSubsetsByMetricValue(metrics[j], ladders[j])
		}
		for _, s := range ladders[0] {
			rep.Ladder = append(rep.Ladder, LadderRow{
				Attrs:   s.Attrs,
				Epsilon: JSONFloat(s.Result.Value),
				Finite:  s.Result.Finite,
				Witness: witnessLabels(s.Space, outcomes, s.Result.Witness),
			})
		}
		for j, subs := range ladders[1:] {
			mr := &rep.Metrics[j]
			for _, s := range subs {
				mr.Ladder = append(mr.Ladder, MetricLadderRow{
					Attrs:   s.Attrs,
					Value:   JSONFloat(s.Result.Value),
					Finite:  s.Result.Finite,
					Witness: witnessLabels(s.Space, outcomes, s.Result.Witness),
				})
			}
		}
	} else {
		rep.Ladder = append(rep.Ladder, LadderRow{
			Attrs:   attrNames(space),
			Epsilon: JSONFloat(full.Epsilon),
			Finite:  full.Finite,
			Witness: rep.Witness,
		})
	}

	if cfg.bootstrapB > 0 {
		ivs, err := resample.MetricBootstrap(ctx, metrics, counts, cfg.alpha,
			cfg.bootstrapB, cfg.bootstrapLevel, rng.New(cfg.seed), cfg.workers)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("fairness: bootstrap: %w", err)
		}
		rep.Bootstrap = bootstrapReport(cfg.bootstrapB, ivs[0])
		for j, iv := range ivs[1:] {
			rep.Metrics[j].Bootstrap = bootstrapReport(cfg.bootstrapB, iv)
		}
	}

	if cfg.credibleB > 0 {
		model, err := bayes.NewDirichletMultinomial(counts, cfg.credibleAlpha)
		if err != nil {
			return nil, fmt.Errorf("fairness: credible: %w", err)
		}
		posts, err := model.MetricCredible(ctx, metrics, cfg.credibleB,
			cfg.credibleLevel, rng.New(cfg.seed), cfg.workers)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("fairness: credible: %w", err)
		}
		rep.Credible = credibleReport(cfg, posts[0])
		for j, post := range posts[1:] {
			rep.Metrics[j].Credible = credibleReport(cfg, post)
		}
	}

	if cfg.simpson && space.NumAttrs() == 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for y := range outcomes {
			revs, err := core.DetectSimpsonReversals(counts, y)
			if err != nil {
				return nil, err
			}
			for _, r := range revs {
				rep.Reversals = append(rep.Reversals, ReversalReport{
					Attr:          r.Attr,
					Conditioned:   r.Conditioned,
					ValueHi:       r.ValueHi,
					ValueLo:       r.ValueLo,
					Outcome:       outcomes[y],
					AggregateDiff: JSONFloat(r.AggregateDiff),
					StratumDiffs:  jsonFloats(r.StratumDiffs),
				})
			}
		}
	}

	if cfg.repairTarget > 0 && len(outcomes) == 2 {
		plan, err := repair.Binary(fullCPT, cfg.repairTarget)
		if err != nil {
			return nil, fmt.Errorf("fairness: repair: %w", err)
		}
		rr := &RepairReport{
			TargetEpsilon: JSONFloat(plan.TargetEpsilon),
			Lo:            JSONFloat(plan.Lo),
			Hi:            JSONFloat(plan.Hi),
			Movement:      JSONFloat(plan.Movement),
		}
		for _, gp := range plan.Groups {
			rr.Groups = append(rr.Groups, RepairGroupReport{
				Group:        space.Label(gp.Group),
				OldRate:      JSONFloat(gp.OldRate),
				NewRate:      JSONFloat(gp.NewRate),
				FlipPosToNeg: JSONFloat(gp.FlipPosToNeg),
				FlipNegToPos: JSONFloat(gp.FlipNegToPos),
			})
		}
		rep.Repair = rr
	}

	if cfg.eqOdds != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eo, err := core.EqualizedOddsEpsilon(cfg.eqOdds, cfg.alpha)
		if err != nil {
			return nil, fmt.Errorf("fairness: equalized odds: %w", err)
		}
		eor := &EqualizedOddsReport{
			Epsilon: JSONFloat(eo.Epsilon),
			Finite:  eo.Finite,
		}
		for _, s := range eo.PerLabel {
			eor.PerLabel = append(eor.PerLabel, StratumReport{
				Label:   s.Label,
				Epsilon: JSONFloat(s.Result.Epsilon),
				Finite:  s.Result.Finite,
			})
		}
		rep.EqualizedOdds = eor
	}

	return rep, nil
}

// bootstrapReport is the report section of one bootstrap interval.
func bootstrapReport(replicates int, iv resample.Interval) *BootstrapReport {
	return &BootstrapReport{
		Replicates:    replicates,
		Level:         JSONFloat(iv.Level),
		Lo:            JSONFloat(iv.Lo),
		Hi:            JSONFloat(iv.Hi),
		InfiniteShare: JSONFloat(iv.InfiniteShare),
	}
}

// credibleReport is the report section of one posterior summary.
func credibleReport(cfg auditConfig, post bayes.EpsilonPosterior) *CredibleReport {
	return &CredibleReport{
		Samples:    cfg.credibleB,
		PriorAlpha: JSONFloat(cfg.credibleAlpha),
		Level:      JSONFloat(post.Level),
		Mean:       JSONFloat(post.Mean),
		Median:     JSONFloat(post.Median),
		Lo:         JSONFloat(post.Lo),
		Hi:         JSONFloat(post.Hi),
		Sup:        JSONFloat(post.Sup),
	}
}

// jsonFloats converts a float64 slice to the schema's JSONFloat form.
func jsonFloats(xs []float64) []JSONFloat {
	if xs == nil {
		return nil
	}
	out := make([]JSONFloat, len(xs))
	for i, x := range xs {
		out[i] = JSONFloat(x)
	}
	return out
}

// witnessLabels resolves a witness's indices against its space and the
// shared outcome labels.
func witnessLabels(space *core.Space, outcomes []string, w core.Witness) ReportWitness {
	return ReportWitness{
		Outcome:      outcomes[w.Outcome],
		MostFavored:  space.Label(w.GroupHi),
		LeastFavored: space.Label(w.GroupLo),
	}
}

func attrNames(space *core.Space) []string {
	attrs := space.Attrs()
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
	}
	return names
}

// sameAttrs reports whether two spaces have identical attribute names
// and value vocabularies in the same order (pointer identity is not
// required, so deserialized or independently-built spaces compare
// equal).
func sameAttrs(a, b *core.Space) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.NumAttrs() != b.NumAttrs() {
		return false
	}
	aa, ba := a.Attrs(), b.Attrs()
	for i := range aa {
		if aa[i].Name != ba[i].Name || !sameStrings(aa[i].Values, ba[i].Values) {
			return false
		}
	}
	return true
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
