package loadgen

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
)

func testSpace(t *testing.T) *core.Space {
	t.Helper()
	return core.MustSpace(
		core.Attr{Name: "gender", Values: []string{"M", "F"}},
		core.Attr{Name: "race", Values: []string{"w", "b", "a", "o"}},
	)
}

func testConfig(t *testing.T) WorkloadConfig {
	return WorkloadConfig{
		Space:       testSpace(t),
		Outcomes:    2,
		Monitors:    8,
		MonitorSkew: 1.0,
		GroupSkew:   0.5,
		BatchSize:   16,
		Mix:         Mix{Observe: 0.8, Decide: 0.1, Report: 0.1},
		BaseRate:    0.2,
		RateSpread:  0.5,
		Seed:        42,
	}
}

// TestSynthDeterministic is the acceptance property: the same (config,
// worker) synthesizes a byte-identical encoded request stream on every
// run, and distinct workers synthesize distinct streams.
func TestSynthDeterministic(t *testing.T) {
	cfg := testConfig(t)
	stream := func(worker uint64, binary bool) []byte {
		s, err := NewSynth(cfg, worker)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		var req Request
		for i := 0; i < 500; i++ {
			s.Next(&req)
			out = append(out, byte(req.Op), byte(req.Monitor))
			out = EncodeBody(out, &req, binary)
		}
		return out
	}
	for _, bin := range []bool{false, true} {
		if !bytes.Equal(stream(0, bin), stream(0, bin)) {
			t.Errorf("binary=%v: same worker synthesized different streams", bin)
		}
	}
	if bytes.Equal(stream(0, false), stream(1, false)) {
		t.Error("distinct workers synthesized identical streams")
	}
}

// TestSynthSkewAndMix: with positive skew monitor 0 is the hot key, and
// the op mix tracks the configured weights.
func TestSynthSkewAndMix(t *testing.T) {
	cfg := testConfig(t)
	s, err := NewSynth(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	monCount := make([]int, cfg.Monitors)
	var opCount [numOps]int
	var req Request
	for i := 0; i < n; i++ {
		s.Next(&req)
		monCount[req.Monitor]++
		opCount[req.Op]++
		if req.Op == OpReport && req.Groups != nil {
			t.Fatal("report request carries a batch")
		}
		if req.Op != OpReport {
			if len(req.Groups) != cfg.BatchSize || len(req.Outcomes) != cfg.BatchSize {
				t.Fatalf("batch sized %d/%d, want %d", len(req.Groups), len(req.Outcomes), cfg.BatchSize)
			}
			for i := range req.Groups {
				if g := req.Groups[i]; g < 0 || g >= cfg.Space.Size() {
					t.Fatalf("group %d out of range", g)
				}
				if y := req.Outcomes[i]; y < 0 || y >= cfg.Outcomes {
					t.Fatalf("outcome %d out of range", y)
				}
			}
		}
	}
	for m := 1; m < cfg.Monitors; m++ {
		if monCount[0] <= monCount[m] {
			t.Errorf("skew: monitor 0 (%d) not hotter than monitor %d (%d)", monCount[0], m, monCount[m])
		}
	}
	if frac := float64(opCount[OpObserve]) / n; frac < 0.75 || frac > 0.85 {
		t.Errorf("observe fraction %.3f, want ~0.8", frac)
	}
}

// TestJSONEncodingsDecode: the hand-rolled JSON bodies are valid JSON
// matching what encoding/json would decode on the server side.
func TestJSONEncodingsDecode(t *testing.T) {
	groups := []int{0, 3, 7}
	outcomes := []int{1, 0, 1}
	var body struct {
		Groups    []int `json:"groups"`
		Outcomes  []int `json:"outcomes"`
		Decisions []int `json:"decisions"`
	}
	obs := AppendJSONObserve(nil, groups, outcomes)
	if err := json.Unmarshal(obs, &body); err != nil {
		t.Fatalf("observe body invalid: %v: %s", err, obs)
	}
	if !equalInts(body.Groups, groups) || !equalInts(body.Outcomes, outcomes) {
		t.Fatalf("observe round-trip mismatch: %s", obs)
	}
	dec := AppendJSONDecide(nil, groups, outcomes)
	body.Groups, body.Decisions = nil, nil
	if err := json.Unmarshal(dec, &body); err != nil {
		t.Fatalf("decide body invalid: %v: %s", err, dec)
	}
	if !equalInts(body.Groups, groups) || !equalInts(body.Decisions, outcomes) {
		t.Fatalf("decide round-trip mismatch: %s", dec)
	}
}

// TestBinaryBatchFraming: uvarint count followed by count pairs, no
// trailing bytes — the WAL observe-record framing.
func TestBinaryBatchFraming(t *testing.T) {
	groups := []int{0, 300, 7}
	outcomes := []int{1, 0, 128}
	buf := AppendBinaryBatch(nil, groups, outcomes)
	n, off := binary.Uvarint(buf)
	if off <= 0 || n != 3 {
		t.Fatalf("count = %d (off %d)", n, off)
	}
	for i := 0; i < int(n); i++ {
		g, m := binary.Uvarint(buf[off:])
		if m <= 0 || int(g) != groups[i] {
			t.Fatalf("pair %d group = %d", i, g)
		}
		off += m
		y, m := binary.Uvarint(buf[off:])
		if m <= 0 || int(y) != outcomes[i] {
			t.Fatalf("pair %d outcome = %d", i, y)
		}
		off += m
	}
	if off != len(buf) {
		t.Fatalf("%d trailing bytes", len(buf)-off)
	}
}

func TestMonitorSpecJSON(t *testing.T) {
	spec := MonitorSpecJSON(testSpace(t), []string{"deny", "approve"}, 0.5)
	var parsed struct {
		Space []struct {
			Name   string   `json:"name"`
			Values []string `json:"values"`
		} `json:"space"`
		Outcomes []string `json:"outcomes"`
		Window   struct {
			Size int `json:"size"`
		} `json:"window"`
		Alpha float64 `json:"alpha"`
	}
	if err := json.Unmarshal(spec, &parsed); err != nil {
		t.Fatalf("spec invalid: %v: %s", err, spec)
	}
	if len(parsed.Space) != 2 || parsed.Space[0].Name != "gender" || len(parsed.Outcomes) != 2 ||
		parsed.Window.Size == 0 || parsed.Alpha != 0.5 {
		t.Fatalf("spec mis-rendered: %s", spec)
	}
}

func TestWorkloadValidation(t *testing.T) {
	base := testConfig(t)
	cases := []func(*WorkloadConfig){
		func(c *WorkloadConfig) { c.Space = nil },
		func(c *WorkloadConfig) { c.Outcomes = 1 },
		func(c *WorkloadConfig) { c.Monitors = 0 },
		func(c *WorkloadConfig) { c.BatchSize = 0 },
		func(c *WorkloadConfig) { c.MonitorSkew = -1 },
		func(c *WorkloadConfig) { c.Mix = Mix{} },
		func(c *WorkloadConfig) { c.Mix.Decide = -1 },
		func(c *WorkloadConfig) { c.BaseRate = 0.9; c.RateSpread = 0.5 },
		// NaN fails every comparison, so each check must reject it
		// explicitly, and an infinite skew or weight too.
		func(c *WorkloadConfig) { c.GroupSkew = math.NaN() },
		func(c *WorkloadConfig) { c.MonitorSkew = math.NaN() },
		func(c *WorkloadConfig) { c.GroupSkew = math.Inf(1) },
		func(c *WorkloadConfig) { c.Mix.Observe = math.NaN() },
		func(c *WorkloadConfig) { c.Mix.Report = math.Inf(1) },
		func(c *WorkloadConfig) { c.BaseRate = math.NaN() },
		func(c *WorkloadConfig) { c.RateSpread = math.NaN() },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := NewSynth(cfg, 0); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func equalInts(a, b []int) bool {
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
