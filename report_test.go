package fairness_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	fairness "repro"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/datasets"
)

// TestReportJSONSchema renders reports that between them reach every
// section of the schema and every encoding rule: each must equal the
// encoding/json form byte for byte, declare the schema version, carry
// the keys its options ask for and omit those they do not.
func TestReportJSONSchema(t *testing.T) {
	ctx := context.Background()
	audit := func(counts *core.Counts, opts ...fairness.Option) *fairness.Report {
		t.Helper()
		rep, err := fairness.MustAuditor(counts.Space(), counts.Outcomes(), opts...).Run(ctx, counts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	admissions := datasets.Admissions()

	train, _, err := census.Generate(census.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	income, err := census.IncomeCounts(census.Space(), train)
	if err != nil {
		t.Fatal(err)
	}

	tumbling, _ := auditMonitor(t, 4096, 64, 1)
	served, err := tumbling.Audit(ctx,
		fairness.WithMetrics("worst_gap", "subgroup"),
		fairness.WithBootstrap(20, 0.95),
		fairness.WithCredible(20, 1, 0.95),
		fairness.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	decayed, err := decayedMonitor(t).Audit(ctx, fairness.WithMetrics("worst_ratio"))
	if err != nil {
		t.Fatal(err)
	}

	space := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	sparse := core.MustCounts(space, []string{"no", "yes"})
	sparse.MustAdd(0, 0, 10)
	sparse.MustAdd(1, 0, 5)
	sparse.MustAdd(1, 1, 5)

	for _, tc := range []struct {
		name         string
		rep          *fairness.Report
		keys, absent []string
		contains     []string
	}{
		{
			name: "admissions, every section",
			rep: audit(admissions,
				fairness.WithBootstrap(100, 0.95),
				fairness.WithCredible(100, 1, 0.95),
				fairness.WithRepairTarget(0.5),
				fairness.WithMetrics("worst_gap", "worst_ratio", "alpha_if")),
			keys: []string{
				"estimator", "alpha", "observations", "epsilon", "finite",
				"witness", "interpretation", "subset_bound", "ladder",
				"bootstrap", "credible", "metrics", "reversals", "repair",
			},
			absent: []string{"ladder_source", "ladder_fallback_reason", "equalized_odds"},
			// Witness labels are human-readable, not indices.
			contains: []string{`"most_favored": "gender=`},
		},
		{
			name:     "census labels",
			rep:      audit(income, fairness.WithMetrics("worst_gap")),
			keys:     []string{"ladder", "metrics"},
			contains: []string{`"outcome": "\u003`},
		},
		{
			name:   "equalized odds",
			rep:    audit(admissions, fairness.WithEqualizedOdds(admissionsLabeled(t))),
			keys:   []string{"equalized_odds"},
			absent: []string{"bootstrap", "credible", "metrics", "repair"},
		},
		{
			name:     "tumbling monitor",
			rep:      served,
			keys:     []string{"ladder_source", "metrics", "bootstrap", "credible"},
			absent:   []string{"ladder_fallback_reason"},
			contains: []string{`"ladder_source": "incremental"`},
		},
		{
			name:     "exponential monitor",
			rep:      decayed,
			keys:     []string{"ladder_source", "metrics"},
			absent:   []string{"ladder_fallback_reason"},
			contains: []string{`"ladder_source": "snapshot"`},
		},
		{
			name: "alpha 0, infinite epsilon",
			rep: audit(sparse, fairness.WithAlpha(0),
				fairness.WithMetrics("worst_ratio", "alpha_if"),
				fairness.WithBootstrap(20, 0.9)),
			keys:     []string{"bootstrap", "metrics"},
			contains: []string{`"epsilon": "inf"`},
		},
		{
			name:     "zero report",
			rep:      &fairness.Report{},
			absent:   []string{"ladder_source", "bootstrap", "credible", "metrics", "reversals", "repair", "equalized_odds"},
			contains: []string{`"ladder": null`, `"schema_version": 2,`},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			js := requireOracleBytes(t, tc.rep)
			var m map[string]any
			if err := json.Unmarshal(js, &m); err != nil {
				t.Fatal(err)
			}
			if v, ok := m["schema_version"].(float64); !ok || int(v) != fairness.ReportSchemaVersion {
				t.Errorf("schema_version = %v", m["schema_version"])
			}
			for _, key := range tc.keys {
				if _, ok := m[key]; !ok {
					t.Errorf("schema missing key %q", key)
				}
			}
			for _, key := range tc.absent {
				if _, ok := m[key]; ok {
					t.Errorf("key %q present without being requested", key)
				}
			}
			for _, want := range tc.contains {
				if !bytes.Contains(js, []byte(want)) {
					t.Errorf("rendered report lacks %s:\n%s", want, js)
				}
			}
		})
	}
}

// requireOracleBytes renders rep with RenderJSON, requires the bytes to
// equal the encoding/json form plus a newline, and returns them.
func requireOracleBytes(t *testing.T, rep *fairness.Report) []byte {
	t.Helper()
	want, err := fairness.MarshalIndentPinned(rep)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	var got bytes.Buffer
	if err := rep.RenderJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("RenderJSON differs from encoding/json at byte %d:\ngot:\n%s\nwant:\n%s",
			firstDiff(got.Bytes(), want), got.Bytes(), want)
	}
	return got.Bytes()
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// admissionsLabeled is a (group, true label, prediction) table over the
// admissions space for the equalized-odds section.
func admissionsLabeled(t *testing.T) *fairness.LabeledCounts {
	t.Helper()
	counts := datasets.Admissions()
	labeled, err := fairness.NewLabeledCounts(counts.Space(), []string{"neg", "pos"}, counts.Outcomes())
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < counts.Space().Size(); g++ {
		for l := 0; l < 2; l++ {
			for y := 0; y < 2; y++ {
				for n := 0; n < 5+g+3*l*y; n++ {
					if err := labeled.Observe(g, l, y); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return labeled
}

// decayedMonitor is an exponential monitor (half-life 100 observations,
// α = 1) after 1,000 observes, so its decayed observation total is
// fractional.
func decayedMonitor(t *testing.T) *fairness.Monitor {
	t.Helper()
	mon, err := fairness.NewMonitor(monitorSpace(t), []string{"deny", "approve"}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := mon.Observe(i%4, i/4%2); err != nil {
			t.Fatal(err)
		}
	}
	return mon
}

// filler sets every field of a schema value by reflection, so a field
// added to a schema type later is set too. Strings, floats and ints
// cycle through their lists; the bits of shape, taken in turn, decide
// each slice's form (nil, empty, one or two elements), whether each
// pointer is set and each bool's value. A shape of all ones and
// non-zero lists set every field to a non-zero value.
type filler struct {
	strs   []string
	floats []float64
	ints   []int
	shape  uint64
	n      int
}

func (f *filler) bits(k int) uint64 {
	b := f.shape >> (f.n % 64) & (1<<k - 1)
	f.n += k
	return b
}

func (f *filler) fill(t testing.TB, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(f.strs[f.n%len(f.strs)])
		f.n++
	case reflect.Float64:
		v.SetFloat(f.floats[f.n%len(f.floats)])
		f.n++
	case reflect.Int:
		v.SetInt(int64(f.ints[f.n%len(f.ints)]))
		f.n++
	case reflect.Bool:
		v.SetBool(f.bits(1) == 1)
	case reflect.Pointer:
		if f.bits(1) == 1 {
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(t, v.Elem())
		}
	case reflect.Slice:
		switch n := int(f.bits(2)); n {
		case 0: // nil
		default:
			n-- // empty, one or two elements
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				f.fill(t, v.Index(i))
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(t, v.Field(i))
		}
	default:
		t.Fatalf("filler: no rule for %s; teach the filler and the encoder in report_json.go the new field", v.Type())
	}
}

// TestReportRenderJSONDriftGuard sets every field of Report and of its
// section types, so a field added to the schema later without a line
// in the encoder makes RenderJSON differ from encoding/json.
func TestReportRenderJSONDriftGuard(t *testing.T) {
	for _, shape := range []uint64{^uint64(0), 0, 0x5555_5555_5555_5555, 0xdb6d_b6db_6db6_db6d} {
		var rep fairness.Report
		f := &filler{
			strs:   []string{"gender=F", "<=50K", "α-IF: 1−min", "x"},
			floats: []float64{0.25, 1e-7, 3, math.Inf(1), 1e21, math.NaN(), -2.5},
			ints:   []int{50, 7},
			shape:  shape,
		}
		f.fill(t, reflect.ValueOf(&rep).Elem())
		requireOracleBytes(t, &rep)
	}
}

// FuzzReportRenderJSON fills a report with fuzzed strings, floats and
// shape bits and requires RenderJSON to equal encoding/json. The seed
// corpus in testdata/fuzz covers quotes, backslashes, control bytes,
// <, > and &, U+2028/U+2029 and invalid UTF-8, and float bit patterns
// at the edges of the number format: -0, subnormals, the 1e-6 and 1e21
// cut-offs, ±Inf and NaN.
func FuzzReportRenderJSON(f *testing.F) {
	f.Add("gender=F,race=B", "<=50K", 0.25, 1e-7, math.Inf(1), ^uint64(0))
	f.Fuzz(func(t *testing.T, s1, s2 string, f1, f2, f3 float64, shape uint64) {
		var rep fairness.Report
		fl := &filler{
			strs:   []string{s1, s2},
			floats: []float64{f1, f2, f3},
			ints:   []int{int(shape), -int(shape >> 32)},
			shape:  shape,
		}
		fl.fill(t, reflect.ValueOf(&rep).Elem())
		requireOracleBytes(t, &rep)
	})
}

func TestReportMarshalPinsSchemaVersion(t *testing.T) {
	var rep fairness.Report // zero-valued: SchemaVersion field is 0
	b, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if int(m["schema_version"].(float64)) != fairness.ReportSchemaVersion {
		t.Errorf("zero report schema_version = %v", m["schema_version"])
	}
}

func TestJSONFloatNonFinite(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{1.25, "1.25"},
		{math.Inf(1), `"inf"`},
		{math.Inf(-1), `"-inf"`},
		{math.NaN(), `"nan"`},
	}
	for _, tc := range cases {
		b, err := json.Marshal(fairness.JSONFloat(tc.v))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.want {
			t.Errorf("marshal %v = %s, want %s", tc.v, b, tc.want)
		}
		var back fairness.JSONFloat
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if f, bf := tc.v, float64(back); f != bf && !(math.IsNaN(f) && math.IsNaN(bf)) {
			t.Errorf("round trip %v -> %v", tc.v, back)
		}
	}
	var bad fairness.JSONFloat
	if err := json.Unmarshal([]byte(`"wat"`), &bad); err == nil {
		t.Error("invalid sentinel accepted")
	}
}

func TestReportInfiniteEpsilon(t *testing.T) {
	space := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	counts := core.MustCounts(space, []string{"no", "yes"})
	counts.MustAdd(0, 0, 10)
	counts.MustAdd(1, 0, 5)
	counts.MustAdd(1, 1, 5)
	auditor := fairness.MustAuditor(space, []string{"no", "yes"})
	rep, err := auditor.Run(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Finite {
		t.Fatal("expected infinite full epsilon")
	}
	var text bytes.Buffer
	if err := rep.RenderText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "inf") {
		t.Error("infinite epsilon not rendered in text")
	}
	var js bytes.Buffer
	if err := rep.RenderJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"epsilon": "inf"`) {
		t.Errorf("infinite epsilon not rendered in JSON:\n%s", js.String())
	}
	// The JSON remains parseable with the sentinel in place.
	var back fairness.Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(back.Epsilon), 1) {
		t.Errorf("round-tripped epsilon = %v", back.Epsilon)
	}
}

func TestRenderTextContainsAllSections(t *testing.T) {
	counts := datasets.Admissions()
	auditor := fairness.MustAuditor(counts.Space(), counts.Outcomes(),
		fairness.WithBootstrap(100, 0.95),
		fairness.WithCredible(100, 1, 0.95),
		fairness.WithRepairTarget(0.5),
		fairness.WithSeed(2),
	)
	rep, err := auditor.Run(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"700 observations",
		"gender,race",
		"interpretation",
		"bootstrap",
		"posterior",
		"Simpson reversal",
		"repair proposal",
		"theorem 3.2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// TestRenderTextObservations: the text header prints the observation
// total as the JSON does, fractional for a decayed monitor, and an
// integer total without a fraction.
func TestRenderTextObservations(t *testing.T) {
	decayed, err := decayedMonitor(t).Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	obs := float64(decayed.Observations)
	if obs == math.Trunc(obs) {
		t.Fatalf("decayed observation total %v is integral", obs)
	}
	var buf bytes.Buffer
	if err := decayed.RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "dfaudit: " + strconv.FormatFloat(obs, 'f', -1, 64) + " observations,"; !strings.HasPrefix(buf.String(), want) {
		t.Errorf("text header %q, want prefix %q", strings.SplitN(buf.String(), "\n", 2)[0], want)
	}
	buf.Reset()
	if err := (&fairness.Report{Observations: 32561}).RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "dfaudit: 32561 observations,") {
		t.Errorf("integer total rendered as %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

// failingWriter accepts its first n bytes, then fails, as a full disk
// or a closed pipe does.
type failingWriter struct{ n int }

var errFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	k := w.n
	w.n = 0
	return k, errFull
}

// TestRenderTextWriteErrors: whichever byte a write fails at, in any
// section, RenderText returns the error.
func TestRenderTextWriteErrors(t *testing.T) {
	counts := datasets.Admissions()
	auditor := fairness.MustAuditor(counts.Space(), counts.Outcomes(),
		fairness.WithBootstrap(50, 0.95),
		fairness.WithCredible(50, 1, 0.95),
		fairness.WithRepairTarget(0.5),
		fairness.WithMetrics("worst_gap", "worst_ratio"),
		fairness.WithEqualizedOdds(admissionsLabeled(t)),
	)
	rep, err := auditor.Run(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := rep.RenderText(&full); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < full.Len(); n++ {
		if err := rep.RenderText(&failingWriter{n: n}); !errors.Is(err, errFull) {
			t.Fatalf("write failing after %d of %d bytes: RenderText returned %v", n, full.Len(), err)
		}
	}
}

func TestRepairSkippedForMultiOutcome(t *testing.T) {
	space := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	counts := core.MustCounts(space, []string{"x", "y", "z"})
	for g := 0; g < 2; g++ {
		for y := 0; y < 3; y++ {
			counts.MustAdd(g, y, float64(5+g+y))
		}
	}
	auditor := fairness.MustAuditor(space, []string{"x", "y", "z"},
		fairness.WithRepairTarget(0.5))
	rep, err := auditor.Run(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repair != nil {
		t.Error("repair plan produced for a non-binary outcome")
	}
}
