package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzServeDecide drives arbitrary bodies at the decide endpoint of a
// monitor with an installed plan: malformed input must always produce a
// 4xx, never a 5xx (the gateway cannot crash or blame itself for
// client garbage), and every 200 must carry a structurally valid
// response. The seed corpus runs as a regression suite under plain
// `go test`; `go test -fuzz FuzzServeDecide` explores.
func FuzzServeDecide(f *testing.F) {
	mux := newMux(serverConfig{workers: 1, maxBody: 1 << 20})
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		mux.ServeHTTP(rec, req)
		return rec
	}
	if rec := serve(http.MethodPut, "/v1/monitors/fz",
		[]byte(`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["no", "yes"],
			"window": {"size": 100000}, "threshold": 0.9, "min_effective": 4}`)); rec.Code != http.StatusCreated {
		f.Fatalf("monitor setup: %d %s", rec.Code, rec.Body)
	}
	if rec := serve(http.MethodPost, "/v1/monitors/fz/observe",
		[]byte(`{"groups": [0,0,0,0,1,1,1,1], "outcomes": [1,1,1,0,0,0,0,1]}`)); rec.Code != http.StatusOK {
		f.Fatalf("observe setup: %d %s", rec.Code, rec.Body)
	}
	if rec := serve(http.MethodPost, "/v1/monitors/fz/repair",
		[]byte(`{"target_epsilon": 0.5, "auto_refresh": true, "seed": 1}`)); rec.Code != http.StatusOK {
		f.Fatalf("repair setup: %d %s", rec.Code, rec.Body)
	}

	f.Add([]byte(`{"groups": [0, 1], "decisions": [1, 0]}`))
	f.Add([]byte(`{"groups": [0], "decisions": [1, 0]}`))
	f.Add([]byte(`{"groups": [], "decisions": []}`))
	f.Add([]byte(`{"groups": [99], "decisions": [1]}`))
	f.Add([]byte(`{"groups": [-1], "decisions": [0]}`))
	f.Add([]byte(`{"groups": [0], "decisions": [7]}`))
	f.Add([]byte(`{"groups": [0], "decisions": [1], "extra": true}`))
	f.Add([]byte(`{"groups": [0`))
	f.Add([]byte(`"a string"`))
	f.Add([]byte(`{"groups": [0.5], "decisions": [1]}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec := serve(http.MethodPost, "/v1/monitors/fz/decide", raw)
		if rec.Code >= 500 {
			t.Fatalf("decide returned %d on %q: %s", rec.Code, raw, rec.Body)
		}
		switch {
		case rec.Code == http.StatusOK:
			var resp decideResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("invalid 200 response on %q: %v", raw, err)
			}
			if len(resp.Decisions) != resp.Observed || resp.PlanVersion < 1 {
				t.Fatalf("inconsistent 200 response on %q: %+v", raw, resp)
			}
			for _, d := range resp.Decisions {
				if d != 0 && d != 1 {
					t.Fatalf("non-binary served decision %d on %q", d, raw)
				}
			}
		case rec.Code >= 400:
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("4xx without an error body on %q: %s", raw, rec.Body)
			}
		}
	})
}

// oracleObserveRequest and decideRequest are the JSON batch oracle: the
// structs the observe and decide handlers decoded into with
// json.Decoder and DisallowUnknownFields before decodeJSONBatch
// replaced them. FuzzJSONBatch holds the scanner to them.
type oracleObserveRequest struct {
	Observations []observation `json:"observations,omitempty"`
	Groups       []int         `json:"groups,omitempty"`
	Outcomes     []int         `json:"outcomes,omitempty"`
}

type decideRequest struct {
	Groups    []int `json:"groups"`
	Decisions []int `json:"decisions"`
}

// oracleDecode is the old decode of body into v. It reports whether the
// decode succeeded and whether anything but whitespace followed the
// value, which json.Decoder leaves unread.
func oracleDecode(body []byte, v any) (ok, trailing bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(v) != nil {
		return false, false
	}
	return true, len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
}

// nullIndexElement reports whether body, which the oracle accepted, has
// a null element in an index array: a top-level key's array other than
// observe's named one. encoding/json decodes such an element as 0.
func nullIndexElement(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	depth, key, atKey := 0, "", false
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
			atKey = depth == 1
			continue
		case json.Delim('}'), json.Delim(']'):
			if depth--; depth == 0 {
				return false
			}
			atKey = depth == 1
			continue
		case nil:
			if depth == 2 && !strings.EqualFold(key, "observations") {
				return true
			}
		}
		if depth == 1 {
			if atKey {
				key, _ = tok.(string)
			}
			atKey = !atKey
		}
	}
}

// FuzzJSONBatch is the differential check of decodeJSONBatch (and, for
// observe's named form, decodeNamed) against the oracle, in both
// endpoints' forms: both reject, or both accept with equal index arrays
// and observations. The one exception is a body the oracle accepts with
// a null index element or trailing bytes: the scanner must reject it.
// `go test -fuzz FuzzJSONBatch` explores; the seeds run under plain
// `go test`.
func FuzzJSONBatch(f *testing.F) {
	for _, seed := range []string{
		// Key matching: case folding, escapes, and the long s.
		`{"GROUPS": [0], "Outcomes": [1]}`,
		`{"Groups": [0], "DECISIONS": [1]}`,
		`{"\u0067roups": [1], "outcome\u0073": [0]}`,
		`{"gro\u0055ps": [1], "decisions": [0]}`,
		`{"groupſ": [1], "outcomeſ": [0]}`,
		`{"group\u017f": [1], "decisionſ": [0]}`,
		`{"observatİons": []}`,
		`{"gr\oups": [1]}`,
		`{"\u00": [1]}`,
		`{"\ud800groups": [1]}`,
		"{\"gr\x01oups\": [1]}",
		`{"": [1]}`,
		`{"groups": [0], "outcomes": [1], "extra": true}`,
		// Null arrays and null elements.
		`null`,
		`{"groups": null, "outcomes": null}`,
		`{"groups": [1], "groups": null, "outcomes": [0]}`,
		`{"groups": [0, null, 3], "outcomes": [1, 1, 1]}`,
		`{"groups": [0], "decisions": [null]}`,
		`{"groups": [null], "groups": [1], "outcomes": [1]}`,
		`{"groups": [5, 6], "groups": [null], "outcomes": [0]}`,
		// Duplicate keys: the last wins.
		`{"groups": [1, 2, 3], "outcomes": [0, 0, 0], "groups": [4]}`,
		`{"groups": [5, 6], "Groups": [7, 8], "decisions": [1, 0]}`,
		// Numbers.
		`{"groups": [-0], "outcomes": [-0]}`,
		`{"groups": [01], "outcomes": [1]}`,
		`{"groups": [1.0], "outcomes": [1]}`,
		`{"groups": [1e0], "outcomes": [1]}`,
		`{"groups": [1E+2], "decisions": [1]}`,
		`{"groups": [9223372036854775807], "outcomes": [-9223372036854775808]}`,
		`{"groups": [9223372036854775808], "outcomes": [1]}`,
		`{"groups": [-9223372036854775809], "outcomes": [1]}`,
		`{"groups": [99999999999999999999], "outcomes": [1]}`,
		`{"groups": [-], "outcomes": [1]}`,
		// Strings and nested values.
		`{"groups": ["1"], "outcomes": [0]}`,
		`{"groups": [[1]], "outcomes": [0]}`,
		`{"groups": {"a": 1}, "outcomes": [0]}`,
		`{"groups": [true], "outcomes": [false]}`,
		`{"groups": "x"}`,
		`[1]`,
		`"a string"`,
		`1`,
		// Whitespace everywhere.
		" \t\n{ \r\"groups\" \n: [ 1 ,\t2 ] ,\t\"outcomes\" : [0,1]\n} \r\n",
		`{ }`,
		// Truncated bodies.
		``,
		`{`,
		`{"groups`,
		`{"groups": [1, 2`,
		`{"groups": [1], "outcomes": [0]`,
		`{"observations": [{"group": {"g": "a"`,
		// Trailing bytes.
		`{"groups": [0], "outcomes": [1]}{"groups": [1], "outcomes": [0]}`,
		`{"groups": [0], "decisions": [1]} x`,
		`{"groups": [0], "outcomes": [1]}]`,
		`null x`,
		`nullx`,
		// Both forms in one body, and the named form's own contents.
		`{"observations": [{"group": {"g": "a"}, "outcome": "deny"}], "groups": [0], "outcomes": [0]}`,
		`{"observations": [], "groups": [0], "outcomes": [1]}`,
		`{"observations": null}`,
		`{"observations": [{"group": {"g": "a"}, "outcome": "deny", "extra": 1}]}`,
		`{"observations": [{"group": {"g\n": "a\u00e9"}, "outcome": "\ud83d\ude00"}], "Observations": [1.5e3, true, null, {}]}`,
		`{"observations": [{"group": {"g": "a"}}], "observations": [{"outcome": "deny"}]}`,
		`{"observations": [], "groups": [0, null], "outcomes": [1, 1]}`,
		`{"observations": [], "groups": [1, 2], "Groups": [3], "outcomes": [0]}`,
		`{"observations": [], "groups": [1.5], "outcomes": [0]}`,
		`{"observations": []} x`,
		`{"observations": []}{"groups": [0], "outcomes": [1]}`,
	} {
		f.Add([]byte(seed))
	}
	s := new(batchScratch)
	f.Fuzz(func(t *testing.T, raw []byte) {
		decode := func(form *batchForm) error {
			s.body, s.observations = raw, nil
			s.size(jsonBatchCap(raw))
			_, err := decodeJSONBatch(s, form)
			if err == nil && s.named {
				err = s.decodeNamed()
			}
			return err
		}
		// mustReject: the oracle accepts body, but the scanner may not.
		mustReject := func(ok, trailing bool) bool { return ok && (trailing || nullIndexElement(raw)) }

		var obs oracleObserveRequest
		ok, trailing := oracleDecode(raw, &obs)
		err := decode(&observeForm)
		if mustReject(ok, trailing) {
			ok = false
		}
		if ok != (err == nil) {
			t.Fatalf("observe form of %q: oracle accepts = %v, scanner error = %v", raw, ok, err)
		}
		if ok && (!slices.Equal(s.groups, obs.Groups) || !slices.Equal(s.outcomes, obs.Outcomes) ||
			!reflect.DeepEqual(s.observations, obs.Observations)) {
			t.Fatalf("observe form of %q: scanner %v %v %v, oracle %v %v %v", raw,
				s.groups, s.outcomes, s.observations, obs.Groups, obs.Outcomes, obs.Observations)
		}

		var dec decideRequest
		ok, trailing = oracleDecode(raw, &dec)
		err = decode(&decideForm)
		if mustReject(ok, trailing) {
			ok = false
		}
		if ok != (err == nil) {
			t.Fatalf("decide form of %q: oracle accepts = %v, scanner error = %v", raw, ok, err)
		}
		if ok && (s.named || !slices.Equal(s.groups, dec.Groups) || !slices.Equal(s.outcomes, dec.Decisions)) {
			t.Fatalf("decide form of %q: scanner %v %v, oracle %v %v", raw,
				s.groups, s.outcomes, dec.Groups, dec.Decisions)
		}
	})
}
