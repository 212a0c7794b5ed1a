package fairness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
)

// ReportSchemaVersion identifies the JSON report schema. It is embedded
// in every marshaled Report as "schema_version" and only increments on
// breaking changes (renamed/removed keys or changed value semantics);
// additive fields do not bump it. Consumers should reject versions they
// do not understand.
//
// Version history:
//
//	1 — initial ε-only schema.
//	2 — pluggable metrics: adds "ladder_source" (how the subset ladder
//	    was computed) and the per-metric "metrics" section. Existing ε
//	    fields are unchanged, but v1 consumers that reject unknown
//	    versions must opt in, hence the bump. Early v2 reports of
//	    exponential monitors also carried an optional fallback-reason
//	    key; it is retired without a bump, since it never appeared in a
//	    window-policy report and the snapshot ladder is now chosen up
//	    front rather than fallen back to.
const ReportSchemaVersion = 2

// JSONFloat is a float64 whose JSON form survives the non-finite values
// ε analysis legitimately produces (a zero probability against a
// positive one yields ε = +Inf). Finite values marshal as plain JSON
// numbers; +Inf, -Inf and NaN marshal as the strings "inf", "-inf" and
// "nan", and unmarshal back from either form. It is an alias of
// core.JSONFloat so internal schema types share the convention.
type JSONFloat = core.JSONFloat

// ReportWitness names the outcome and the most/least favored
// intersectional groups achieving a measured ε (human-readable labels,
// not indices).
type ReportWitness struct {
	Outcome      string `json:"outcome"`
	MostFavored  string `json:"most_favored"`
	LeastFavored string `json:"least_favored"`
}

// ReportInterpretation is the §3.3 reading of the full-intersection ε.
type ReportInterpretation struct {
	// MaxUtilityFactor is e^ε, the worst-case multiplicative disparity in
	// expected utility between two groups (Eq. 5).
	MaxUtilityFactor JSONFloat `json:"max_utility_factor"`
	// HighFairnessRegime is true when ε < 1.
	HighFairnessRegime bool `json:"high_fairness_regime"`
	// StrongerThanRandomizedResponse is true when ε < ln 3.
	StrongerThanRandomizedResponse bool `json:"stronger_than_randomized_response"`
}

// LadderRow is one row of the per-subset ε ladder (the paper's Table 2
// analysis), sorted by increasing ε with lexicographic attribute-subset
// tie-breaking.
type LadderRow struct {
	Attrs   []string      `json:"attrs"`
	Epsilon JSONFloat     `json:"epsilon"`
	Finite  bool          `json:"finite"`
	Witness ReportWitness `json:"witness"`
}

// BootstrapReport summarizes the percentile bootstrap interval for the
// full-intersection ε.
type BootstrapReport struct {
	Replicates int       `json:"replicates"`
	Level      JSONFloat `json:"level"`
	Lo         JSONFloat `json:"lo"`
	Hi         JSONFloat `json:"hi"`
	// InfiniteShare is the fraction of replicates with infinite ε — a
	// sparsity diagnostic suggesting Eq. 7 smoothing.
	InfiniteShare JSONFloat `json:"infinite_share"`
}

// CredibleReport summarizes the Dirichlet-multinomial posterior of ε.
type CredibleReport struct {
	Samples    int       `json:"samples"`
	PriorAlpha JSONFloat `json:"prior_alpha"`
	Level      JSONFloat `json:"level"`
	Mean       JSONFloat `json:"mean"`
	Median     JSONFloat `json:"median"`
	Lo         JSONFloat `json:"lo"`
	Hi         JSONFloat `json:"hi"`
	// Sup is the supremum over posterior samples: ε of the sampled
	// credible set read as a framework Θ (Definition 3.1).
	Sup JSONFloat `json:"sup"`
}

// ReversalReport describes one detected Simpson's-paradox reversal.
type ReversalReport struct {
	Attr          string      `json:"attr"`
	Conditioned   string      `json:"conditioned"`
	ValueHi       string      `json:"value_hi"`
	ValueLo       string      `json:"value_lo"`
	Outcome       string      `json:"outcome"`
	AggregateDiff JSONFloat   `json:"aggregate_diff"`
	StratumDiffs  []JSONFloat `json:"stratum_diffs"`
}

// RepairGroupReport is the repair prescription for one group.
type RepairGroupReport struct {
	Group        string    `json:"group"`
	OldRate      JSONFloat `json:"old_rate"`
	NewRate      JSONFloat `json:"new_rate"`
	FlipPosToNeg JSONFloat `json:"flip_pos_to_neg"`
	FlipNegToPos JSONFloat `json:"flip_neg_to_pos"`
}

// RepairReport is the minimal-movement repair plan to a target ε.
type RepairReport struct {
	TargetEpsilon JSONFloat `json:"target_epsilon"`
	// Lo and Hi bound the repaired positive rates.
	Lo JSONFloat `json:"lo"`
	Hi JSONFloat `json:"hi"`
	// Movement is the expected fraction of decisions changed.
	Movement JSONFloat           `json:"movement"`
	Groups   []RepairGroupReport `json:"groups"`
}

// StratumReport is ε within one true-label stratum of the
// equalized-odds analysis.
type StratumReport struct {
	Label   string    `json:"label"`
	Epsilon JSONFloat `json:"epsilon"`
	Finite  bool      `json:"finite"`
}

// EqualizedOddsReport is the equalized-odds analogue of DF (§7.1): the
// per-stratum ε values and their maximum.
type EqualizedOddsReport struct {
	Epsilon  JSONFloat       `json:"epsilon"`
	Finite   bool            `json:"finite"`
	PerLabel []StratumReport `json:"per_label"`
}

// Ladder-source values recorded in Report.LadderSource by Monitor.Audit.
// A report produced by a plain Auditor.Run omits the field: its ladder
// is always walked over the counts it was given.
const (
	// LadderSourceIncremental: the subset ladders of ε and of every
	// metric with an extrema form came from the monitor's incremental
	// maintenance structures (O(changed cells) per update); any other
	// metric's ladder was walked over the same counts. Window-policy
	// monitors audited under their own alpha with subsets on report it.
	LadderSourceIncremental = "incremental"
	// LadderSourceSnapshot: every ladder was walked over a merged
	// snapshot of the counts — for exponential-decay monitors, spaces of
	// more than 16 attributes, an overridden alpha, or subsets off.
	LadderSourceSnapshot = "snapshot"
)

// MetricLadderRow is one row of a per-metric subset ladder, sorted from
// least to most unfair under the metric's orientation with lexicographic
// attribute-subset tie-breaking.
type MetricLadderRow struct {
	Attrs   []string      `json:"attrs"`
	Value   JSONFloat     `json:"value"`
	Finite  bool          `json:"finite"`
	Witness ReportWitness `json:"witness"`
}

// MetricReport is the audit result for one requested fairness metric
// beyond the always-present ε: the full-intersection value with witness,
// the per-subset ladder, and any requested bootstrap/credible
// uncertainty, scored on the very replicate tables and posterior draws
// ε is scored on (one engine run serves ε and every metric).
type MetricReport struct {
	Key         string `json:"key"`
	Description string `json:"description"`
	// HigherIsWorse orients Value and the ladder: false for ratio-style
	// metrics where small values are the unfair ones.
	HigherIsWorse bool              `json:"higher_is_worse"`
	Value         JSONFloat         `json:"value"`
	Finite        bool              `json:"finite"`
	Witness       ReportWitness     `json:"witness"`
	Ladder        []MetricLadderRow `json:"ladder,omitempty"`
	Bootstrap     *BootstrapReport  `json:"bootstrap,omitempty"`
	Credible      *CredibleReport   `json:"credible,omitempty"`
}

// Report is the complete result of one Auditor.Run: the ε ladder,
// witnesses, interpretation, uncertainty (bootstrap and/or credible),
// Simpson reversals, repair plan and equalized-odds analysis the options
// requested.
//
// Its JSON form is a stable versioned schema (ReportSchemaVersion):
// field order follows the struct, optional sections are omitted when
// not requested, and non-finite ε values are encoded via JSONFloat.
// Identical inputs, options and seed produce byte-identical RenderJSON
// output regardless of GOMAXPROCS — cmd/dfaudit and cmd/dfserve share
// this property.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	// Estimator names the estimator in prose ("empirical (Eq. 6)" or the
	// Dirichlet-smoothed variant); Alpha is its pseudo-count.
	Estimator    string    `json:"estimator"`
	Alpha        JSONFloat `json:"alpha"`
	Observations JSONFloat `json:"observations"`
	// Epsilon is the full-intersection differential fairness.
	Epsilon        JSONFloat            `json:"epsilon"`
	Finite         bool                 `json:"finite"`
	Witness        ReportWitness        `json:"witness"`
	Interpretation ReportInterpretation `json:"interpretation"`
	// SubsetBound is Theorem 3.2's 2ε guarantee for every subset.
	SubsetBound JSONFloat   `json:"subset_bound"`
	Ladder      []LadderRow `json:"ladder"`
	// LadderSource records how Monitor.Audit computed the ladder
	// (LadderSourceIncremental or LadderSourceSnapshot); empty for plain
	// Auditor.Run reports.
	LadderSource string           `json:"ladder_source,omitempty"`
	Bootstrap    *BootstrapReport `json:"bootstrap,omitempty"`
	Credible     *CredibleReport  `json:"credible,omitempty"`
	// Metrics holds the additional fairness metrics requested via
	// WithMetrics, in request order.
	Metrics       []MetricReport       `json:"metrics,omitempty"`
	Reversals     []ReversalReport     `json:"reversals,omitempty"`
	Repair        *RepairReport        `json:"repair,omitempty"`
	EqualizedOdds *EqualizedOddsReport `json:"equalized_odds,omitempty"`
}

// MarshalJSON implements json.Marshaler, pinning schema_version to
// ReportSchemaVersion so a zero-valued or hand-built Report still
// declares its schema.
func (r *Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.pinned())
}

// plainReport is Report without its methods, so encoding it does not
// recurse into MarshalJSON.
type plainReport Report

// pinned returns a copy of the report, as a plainReport, with
// schema_version pinned to ReportSchemaVersion.
func (r *Report) pinned() *plainReport {
	p := plainReport(*r)
	p.SchemaVersion = ReportSchemaVersion
	return &p
}

// RenderJSON writes the report as indented JSON (the stable schema) with
// a trailing newline, in one Write. Its bytes are those of
// json.MarshalIndent(r, "", "  ") followed by a newline, and tests pin
// that equality; identical reports render identical bytes.
func (r *Report) RenderJSON(w io.Writer) error {
	e := reportEncoders.Get().(*reportEncoder)
	defer reportEncoders.Put(e)
	*e = reportEncoder{buf: e.buf[:0]}
	r.appendJSON(e)
	e.buf = append(e.buf, '\n')
	_, err := w.Write(e.buf)
	return err
}

// errWriter passes writes through to w until one fails, then keeps that
// first error and fails every later write with it.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}

// RenderText writes the human-readable report and returns the first
// write error, if any.
func (r *Report) RenderText(out io.Writer) error {
	w := &errWriter{w: out}
	fmt.Fprintf(w, "dfaudit: %s observations, estimator: %s\n\n",
		strconv.FormatFloat(float64(r.Observations), 'f', -1, 64), r.Estimator)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "protected attributes\teps\twitness outcome\tmost favored\tleast favored")
	for _, row := range r.Ladder {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			strings.Join(row.Attrs, ","), fmtEps(float64(row.Epsilon)),
			row.Witness.Outcome, row.Witness.MostFavored, row.Witness.LeastFavored)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(w, "\ninterpretation (paper section 3.3):\n")
	fmt.Fprintf(w, "  worst-case expected-utility disparity: %.2fx (e^eps)\n", float64(r.Interpretation.MaxUtilityFactor))
	fmt.Fprintf(w, "  high-fairness regime (eps < 1): %v\n", r.Interpretation.HighFairnessRegime)
	fmt.Fprintf(w, "  stronger than randomized response (eps < ln 3 = %.4f): %v\n",
		math.Log(3), r.Interpretation.StrongerThanRandomizedResponse)
	fmt.Fprintf(w, "  theorem 3.2: every attribute subset is at most %s-DF\n", fmtEps(float64(r.SubsetBound)))

	if r.Bootstrap != nil {
		fmt.Fprintf(w, "\nbootstrap (%d replicates, %.0f%% level): eps in [%s, %s]",
			r.Bootstrap.Replicates, 100*r.Bootstrap.Level,
			fmtEps(float64(r.Bootstrap.Lo)), fmtEps(float64(r.Bootstrap.Hi)))
		if r.Bootstrap.InfiniteShare > 0 {
			fmt.Fprintf(w, "  (%.1f%% of replicates infinite — sparse intersections; consider -alpha 1)",
				100*r.Bootstrap.InfiniteShare)
		}
		fmt.Fprintln(w)
	}

	if r.Credible != nil {
		c := r.Credible
		fmt.Fprintf(w, "\nposterior (%d samples, Dirichlet(%g) prior, %.0f%% credible): eps in [%s, %s], mean %s, sup %s\n",
			c.Samples, c.PriorAlpha, 100*c.Level,
			fmtEps(float64(c.Lo)), fmtEps(float64(c.Hi)),
			fmtEps(float64(c.Mean)), fmtEps(float64(c.Sup)))
	}

	for i := range r.Metrics {
		m := &r.Metrics[i]
		orient := "higher is worse"
		if !m.HigherIsWorse {
			orient = "lower is worse"
		}
		fmt.Fprintf(w, "\nmetric %s (%s): %s", m.Key, orient, fmtEps(float64(m.Value)))
		if m.Witness.Outcome != "" {
			fmt.Fprintf(w, "  witness: outcome %s, most favored %s, least favored %s",
				m.Witness.Outcome, m.Witness.MostFavored, m.Witness.LeastFavored)
		}
		fmt.Fprintln(w)
		if len(m.Ladder) > 0 {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "  protected attributes\tvalue\twitness outcome\tmost favored\tleast favored")
			for _, row := range m.Ladder {
				fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\n",
					strings.Join(row.Attrs, ","), fmtEps(float64(row.Value)),
					row.Witness.Outcome, row.Witness.MostFavored, row.Witness.LeastFavored)
			}
			if err := tw.Flush(); err != nil {
				return err
			}
		}
		if m.Bootstrap != nil {
			fmt.Fprintf(w, "  bootstrap (%d replicates, %.0f%% level): value in [%s, %s]\n",
				m.Bootstrap.Replicates, 100*m.Bootstrap.Level,
				fmtEps(float64(m.Bootstrap.Lo)), fmtEps(float64(m.Bootstrap.Hi)))
		}
		if m.Credible != nil {
			fmt.Fprintf(w, "  posterior (%d samples, %.0f%% credible): value in [%s, %s], mean %s\n",
				m.Credible.Samples, 100*m.Credible.Level,
				fmtEps(float64(m.Credible.Lo)), fmtEps(float64(m.Credible.Hi)),
				fmtEps(float64(m.Credible.Mean)))
		}
	}

	for _, rev := range r.Reversals {
		fmt.Fprintf(w, "\nSimpson reversal: %s=%s beats %s=%s on %q overall, "+
			"but loses within every stratum of %s\n",
			rev.Attr, rev.ValueHi, rev.Attr, rev.ValueLo, rev.Outcome, rev.Conditioned)
	}

	if r.Repair != nil {
		p := r.Repair
		fmt.Fprintf(w, "\nrepair proposal (target eps = %g, expected decisions changed: %.2f%%):\n",
			p.TargetEpsilon, 100*p.Movement)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "group\trate\tnew rate\tflip + to -\tflip - to +")
		for _, gp := range p.Groups {
			fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.4f\n",
				gp.Group, gp.OldRate, gp.NewRate, gp.FlipPosToNeg, gp.FlipNegToPos)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if r.EqualizedOdds != nil {
		eo := r.EqualizedOdds
		fmt.Fprintf(w, "\nequalized-odds analogue (section 7.1): eps = %s\n", fmtEps(float64(eo.Epsilon)))
		for _, s := range eo.PerLabel {
			fmt.Fprintf(w, "  stratum %s: eps = %s\n", s.Label, fmtEps(float64(s.Epsilon)))
		}
	}
	return w.err
}

func fmtEps(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.4f", v)
}
