package fairness

import (
	"encoding/json"
	"strconv"
	"sync"
)

// This file is the report schema's JSON encoder. It appends exactly the
// bytes json.MarshalIndent(r.pinned(), "", "  ") produces: struct field
// order, the omitempty rules of the struct tags, null for a nil slice
// without omitempty, JSONFloat's number format and sentinels, and
// encoding/json's HTML-safe string escaping. The struct tags stay the
// decoding schema, and the tests compare this encoder with
// encoding/json on real reports, on a report whose every field is set
// by reflection, and under fuzzing, so a field added to a schema type
// must be added here too.

// reportEncoders recycles render buffers across reports.
var reportEncoders = sync.Pool{New: func() any { return new(reportEncoder) }}

// reportEncoder appends indented JSON laid out as json.MarshalIndent
// lays it out with no prefix and a two-space indent.
type reportEncoder struct {
	buf   []byte
	depth int
	// more is false right after an opening bracket and true once the
	// open object or array holds a member: the next member then needs a
	// comma, and the closing bracket goes on its own line.
	more bool
}

// newlineIndent holds a newline and the indent of every depth the
// schema reaches (it nests six levels deep).
const newlineIndent = "\n                "

func (e *reportEncoder) newline() {
	e.buf = append(e.buf, newlineIndent[:1+2*e.depth]...)
}

// open starts an object or an array.
func (e *reportEncoder) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.more = false
}

// close ends the innermost object or array. An empty one stays "{}" or
// "[]" on one line.
func (e *reportEncoder) close(c byte) {
	e.depth--
	if e.more {
		e.newline()
	}
	e.buf = append(e.buf, c)
	e.more = true
}

// elem starts the next array element.
func (e *reportEncoder) elem() {
	if e.more {
		e.buf = append(e.buf, ',')
	}
	e.newline()
	e.more = true
}

// key starts the next object member; k needs no escaping.
func (e *reportEncoder) key(k string) {
	e.elem()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, k...)
	e.buf = append(e.buf, `": `...)
}

// verbatim marks the bytes a JSON string can carry unescaped under
// encoding/json's HTML-safe escaping: printable ASCII other than the
// quote, the backslash and <, > and &.
var verbatim = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// str appends s as a JSON string. A string of verbatim bytes is copied
// as is; any other is encoded by encoding/json itself, so its escaping
// and its handling of invalid UTF-8 are the standard library's.
func (e *reportEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if !verbatim[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, q...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

func (e *reportEncoder) strField(k, v string) {
	e.key(k)
	e.str(v)
}

func (e *reportEncoder) floatField(k string, v JSONFloat) {
	e.key(k)
	e.buf = v.AppendJSON(e.buf)
}

func (e *reportEncoder) intField(k string, v int) {
	e.key(k)
	e.buf = strconv.AppendInt(e.buf, int64(v), 10)
}

func (e *reportEncoder) boolField(k string, v bool) {
	e.key(k)
	e.buf = strconv.AppendBool(e.buf, v)
}

// appendArray appends s as a JSON array, or null when s is nil, with
// one call of elem per element.
func appendArray[T any](e *reportEncoder, s []T, elem func(*T, *reportEncoder)) {
	if s == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.open('[')
	for i := range s {
		e.elem()
		elem(&s[i], e)
	}
	e.close(']')
}

func appendString(s *string, e *reportEncoder) { e.str(*s) }

func appendFloat(f *JSONFloat, e *reportEncoder) { e.buf = f.AppendJSON(e.buf) }

// appendJSON appends the report with schema_version pinned to
// ReportSchemaVersion, as pinned does for encoding/json.
func (r *Report) appendJSON(e *reportEncoder) {
	e.open('{')
	e.intField("schema_version", ReportSchemaVersion)
	e.strField("estimator", r.Estimator)
	e.floatField("alpha", r.Alpha)
	e.floatField("observations", r.Observations)
	e.floatField("epsilon", r.Epsilon)
	e.boolField("finite", r.Finite)
	e.key("witness")
	r.Witness.appendJSON(e)
	e.key("interpretation")
	r.Interpretation.appendJSON(e)
	e.floatField("subset_bound", r.SubsetBound)
	e.key("ladder")
	appendArray(e, r.Ladder, (*LadderRow).appendJSON)
	if r.LadderSource != "" {
		e.strField("ladder_source", r.LadderSource)
	}
	if r.Bootstrap != nil {
		e.key("bootstrap")
		r.Bootstrap.appendJSON(e)
	}
	if r.Credible != nil {
		e.key("credible")
		r.Credible.appendJSON(e)
	}
	if len(r.Metrics) > 0 {
		e.key("metrics")
		appendArray(e, r.Metrics, (*MetricReport).appendJSON)
	}
	if len(r.Reversals) > 0 {
		e.key("reversals")
		appendArray(e, r.Reversals, (*ReversalReport).appendJSON)
	}
	if r.Repair != nil {
		e.key("repair")
		r.Repair.appendJSON(e)
	}
	if r.EqualizedOdds != nil {
		e.key("equalized_odds")
		r.EqualizedOdds.appendJSON(e)
	}
	e.close('}')
}

func (w *ReportWitness) appendJSON(e *reportEncoder) {
	e.open('{')
	e.strField("outcome", w.Outcome)
	e.strField("most_favored", w.MostFavored)
	e.strField("least_favored", w.LeastFavored)
	e.close('}')
}

func (in *ReportInterpretation) appendJSON(e *reportEncoder) {
	e.open('{')
	e.floatField("max_utility_factor", in.MaxUtilityFactor)
	e.boolField("high_fairness_regime", in.HighFairnessRegime)
	e.boolField("stronger_than_randomized_response", in.StrongerThanRandomizedResponse)
	e.close('}')
}

func (row *LadderRow) appendJSON(e *reportEncoder) {
	e.open('{')
	e.key("attrs")
	appendArray(e, row.Attrs, appendString)
	e.floatField("epsilon", row.Epsilon)
	e.boolField("finite", row.Finite)
	e.key("witness")
	row.Witness.appendJSON(e)
	e.close('}')
}

func (b *BootstrapReport) appendJSON(e *reportEncoder) {
	e.open('{')
	e.intField("replicates", b.Replicates)
	e.floatField("level", b.Level)
	e.floatField("lo", b.Lo)
	e.floatField("hi", b.Hi)
	e.floatField("infinite_share", b.InfiniteShare)
	e.close('}')
}

func (c *CredibleReport) appendJSON(e *reportEncoder) {
	e.open('{')
	e.intField("samples", c.Samples)
	e.floatField("prior_alpha", c.PriorAlpha)
	e.floatField("level", c.Level)
	e.floatField("mean", c.Mean)
	e.floatField("median", c.Median)
	e.floatField("lo", c.Lo)
	e.floatField("hi", c.Hi)
	e.floatField("sup", c.Sup)
	e.close('}')
}

func (m *MetricReport) appendJSON(e *reportEncoder) {
	e.open('{')
	e.strField("key", m.Key)
	e.strField("description", m.Description)
	e.boolField("higher_is_worse", m.HigherIsWorse)
	e.floatField("value", m.Value)
	e.boolField("finite", m.Finite)
	e.key("witness")
	m.Witness.appendJSON(e)
	if len(m.Ladder) > 0 {
		e.key("ladder")
		appendArray(e, m.Ladder, (*MetricLadderRow).appendJSON)
	}
	if m.Bootstrap != nil {
		e.key("bootstrap")
		m.Bootstrap.appendJSON(e)
	}
	if m.Credible != nil {
		e.key("credible")
		m.Credible.appendJSON(e)
	}
	e.close('}')
}

func (row *MetricLadderRow) appendJSON(e *reportEncoder) {
	e.open('{')
	e.key("attrs")
	appendArray(e, row.Attrs, appendString)
	e.floatField("value", row.Value)
	e.boolField("finite", row.Finite)
	e.key("witness")
	row.Witness.appendJSON(e)
	e.close('}')
}

func (rev *ReversalReport) appendJSON(e *reportEncoder) {
	e.open('{')
	e.strField("attr", rev.Attr)
	e.strField("conditioned", rev.Conditioned)
	e.strField("value_hi", rev.ValueHi)
	e.strField("value_lo", rev.ValueLo)
	e.strField("outcome", rev.Outcome)
	e.floatField("aggregate_diff", rev.AggregateDiff)
	e.key("stratum_diffs")
	appendArray(e, rev.StratumDiffs, appendFloat)
	e.close('}')
}

func (p *RepairReport) appendJSON(e *reportEncoder) {
	e.open('{')
	e.floatField("target_epsilon", p.TargetEpsilon)
	e.floatField("lo", p.Lo)
	e.floatField("hi", p.Hi)
	e.floatField("movement", p.Movement)
	e.key("groups")
	appendArray(e, p.Groups, (*RepairGroupReport).appendJSON)
	e.close('}')
}

func (g *RepairGroupReport) appendJSON(e *reportEncoder) {
	e.open('{')
	e.strField("group", g.Group)
	e.floatField("old_rate", g.OldRate)
	e.floatField("new_rate", g.NewRate)
	e.floatField("flip_pos_to_neg", g.FlipPosToNeg)
	e.floatField("flip_neg_to_pos", g.FlipNegToPos)
	e.close('}')
}

func (s *StratumReport) appendJSON(e *reportEncoder) {
	e.open('{')
	e.strField("label", s.Label)
	e.floatField("epsilon", s.Epsilon)
	e.boolField("finite", s.Finite)
	e.close('}')
}

func (eo *EqualizedOddsReport) appendJSON(e *reportEncoder) {
	e.open('{')
	e.floatField("epsilon", eo.Epsilon)
	e.boolField("finite", eo.Finite)
	e.key("per_label")
	appendArray(e, eo.PerLabel, (*StratumReport).appendJSON)
	e.close('}')
}
