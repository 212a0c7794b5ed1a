// Package loadgen is the open-loop load-generation subsystem behind
// cmd/dfload: it synthesizes census-scale decision streams over a
// protected-attribute space, schedules them against a dfserve instance
// at a target rate (open-loop, so response latency never throttles the
// offered load — the coordinated-omission trap), and aggregates
// per-endpoint latency histograms into the BENCH_serve.json artifact.
//
// The package is determinism-critical (enforced by dfvet): workload
// synthesis draws every monitor id, group and outcome from seeded
// internal/rng substreams — one per worker — so two runs with the same
// seed and flags produce byte-identical request streams regardless of
// scheduling, and measurement timestamps flow through an injected Clock
// rather than wall-clock reads.
package loadgen

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/rng"
)

// Op identifies one request kind in the traffic mix.
type Op uint8

const (
	OpObserve Op = iota
	OpDecide
	OpReport
	numOps
)

// String returns the endpoint label used in artifacts and logs.
func (op Op) String() string {
	switch op {
	case OpObserve:
		return "observe"
	case OpDecide:
		return "decide"
	case OpReport:
		return "report"
	}
	return "unknown"
}

// Mix is the traffic composition as non-negative weights; the synthesis
// normalizes them. A zero mix is invalid.
type Mix struct {
	Observe float64
	Decide  float64
	Report  float64
}

// WorkloadConfig parameterizes deterministic stream synthesis. The same
// config and seed always synthesize the same per-worker request
// streams, byte for byte.
type WorkloadConfig struct {
	// Space is the protected-attribute space observations are drawn
	// over; group indices enumerate it row-major as everywhere else.
	Space *core.Space
	// Outcomes is the outcome vocabulary size (2 for decide traffic).
	Outcomes int
	// Monitors is the number of distinct monitor ids traffic spreads
	// over; MonitorSkew is the zipf exponent of the hot-key skew across
	// them (0 = uniform, 1 ≈ classic zipf — monitor 0 is the hot key).
	Monitors    int
	MonitorSkew float64
	// GroupSkew is the zipf exponent of the population skew across
	// intersectional groups (0 = uniform), mirroring how census cells
	// concentrate mass in a few large intersections.
	GroupSkew float64
	// BatchSize is the number of observations per observe/decide batch.
	BatchSize int
	// Mix weights the request kinds.
	Mix Mix
	// BaseRate and RateSpread define the positive-outcome probability
	// ramp across groups: group g draws outcome 1 (of 2) with
	// probability BaseRate + RateSpread·g/(G-1), so the synthesized
	// stream carries a real, nontrivial ε. With more than two outcomes
	// the remaining probability spreads uniformly.
	BaseRate, RateSpread float64
	// Seed is the master seed; worker w synthesizes from substream
	// rng.NewStream(Seed, w).
	Seed uint64
}

func (c *WorkloadConfig) validate() error {
	if c.Space == nil {
		return fmt.Errorf("loadgen: workload needs a space")
	}
	if c.Outcomes < 2 {
		return fmt.Errorf("loadgen: need at least 2 outcomes, got %d", c.Outcomes)
	}
	if c.Monitors < 1 {
		return fmt.Errorf("loadgen: need at least 1 monitor, got %d", c.Monitors)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("loadgen: batch size must be positive, got %d", c.BatchSize)
	}
	// Each check is written so that NaN, which fails every comparison,
	// fails it too.
	if !nonNegativeFinite(c.MonitorSkew) || !nonNegativeFinite(c.GroupSkew) {
		return fmt.Errorf("loadgen: skew exponents must be non-negative and finite")
	}
	if !nonNegativeFinite(c.Mix.Observe) || !nonNegativeFinite(c.Mix.Decide) || !nonNegativeFinite(c.Mix.Report) {
		return fmt.Errorf("loadgen: mix weights must be non-negative and finite")
	}
	if c.Mix.Observe+c.Mix.Decide+c.Mix.Report <= 0 {
		return fmt.Errorf("loadgen: mix weights sum to zero")
	}
	lo, hi := c.BaseRate, c.BaseRate+c.RateSpread
	if !(lo >= 0 && lo <= 1 && hi >= 0 && hi <= 1) {
		return fmt.Errorf("loadgen: outcome rate ramp [%g, %g] leaves [0,1]", lo, hi)
	}
	return nil
}

// nonNegativeFinite reports whether x is in [0, +Inf).
func nonNegativeFinite(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// zipfWeights returns weights w_i ∝ 1/(i+1)^s.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return w
}

// Request is one synthesized request: the operation, the target monitor
// (an index into the run's monitor id list) and, for observe/decide,
// the batch as parallel index arrays. Slices are owned by the Synth and
// reused between Next calls.
type Request struct {
	Op       Op
	Monitor  int
	Groups   []int
	Outcomes []int
}

// Synth deterministically synthesizes one worker's request stream from
// substream (seed, worker). Distinct workers own distinct substreams,
// so a run's full workload is reproducible no matter how the scheduler
// interleaves them.
type Synth struct {
	cfg      WorkloadConfig
	rng      *rng.RNG
	monitors *rng.Alias
	groups   *rng.Alias
	rates    []float64 // per-group P(outcome = 1)
	mixCum   [numOps]float64
	groupBuf []int
	outBuf   []int
}

// NewSynth builds worker w's synthesizer.
func NewSynth(cfg WorkloadConfig, worker uint64) (*Synth, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Synth{
		cfg:      cfg,
		rng:      rng.NewStream(cfg.Seed, worker),
		monitors: rng.NewAlias(zipfWeights(cfg.Monitors, cfg.MonitorSkew)),
		groups:   rng.NewAlias(zipfWeights(cfg.Space.Size(), cfg.GroupSkew)),
		rates:    make([]float64, cfg.Space.Size()),
		groupBuf: make([]int, cfg.BatchSize),
		outBuf:   make([]int, cfg.BatchSize),
	}
	for g := range s.rates {
		frac := 0.0
		if n := cfg.Space.Size(); n > 1 {
			frac = float64(g) / float64(n-1)
		}
		s.rates[g] = cfg.BaseRate + cfg.RateSpread*frac
	}
	total := cfg.Mix.Observe + cfg.Mix.Decide + cfg.Mix.Report
	s.mixCum[OpObserve] = cfg.Mix.Observe / total
	s.mixCum[OpDecide] = s.mixCum[OpObserve] + cfg.Mix.Decide/total
	s.mixCum[OpReport] = 1
	return s, nil
}

// Next synthesizes the worker's next request into req. The returned
// slices alias the Synth's buffers and are valid until the next call.
func (s *Synth) Next(req *Request) {
	u := s.rng.Float64()
	op := OpObserve
	for op < OpReport && u >= s.mixCum[op] {
		op++
	}
	req.Op = op
	req.Monitor = s.monitors.Sample(s.rng)
	req.Groups = nil
	req.Outcomes = nil
	if op == OpReport {
		return
	}
	req.Groups = s.groupBuf
	req.Outcomes = s.outBuf
	for i := 0; i < s.cfg.BatchSize; i++ {
		g := s.groups.Sample(s.rng)
		s.groupBuf[i] = g
		if s.rng.Bool(s.rates[g]) {
			s.outBuf[i] = 1
		} else if s.cfg.Outcomes == 2 {
			s.outBuf[i] = 0
		} else {
			// Spread the negative mass uniformly over the remaining
			// outcomes so >2-ary vocabularies see every class.
			y := s.rng.Intn(s.cfg.Outcomes - 1)
			if y >= 1 {
				y++
			}
			s.outBuf[i] = y
		}
	}
}

// ---- wire encodings ----

// BinaryContentType is the compact batch content type dfserve accepts
// on POST /v1/monitors/{id}/observe and /decide.
const BinaryContentType = "application/x-df-batch"

// AppendBinaryBatch appends the application/x-df-batch encoding of a
// batch to dst and returns the extended slice: uvarint count, then
// count × (uvarint group, uvarint outcome) — exactly the WAL observe
// record's framing after its id header, so the server can splice the
// body straight into its durability log without re-encoding.
func AppendBinaryBatch(dst []byte, groups, outcomes []int) []byte {
	dst = appendUvarint(dst, uint64(len(groups)))
	for i := range groups {
		dst = appendUvarint(dst, uint64(groups[i]))
		dst = appendUvarint(dst, uint64(outcomes[i]))
	}
	return dst
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// AppendJSONObserve appends the JSON observe body for the same batch:
// {"groups":[...],"outcomes":[...]}. Hand-rolled so the bytes are
// deterministic and the encoder allocates nothing beyond dst growth.
func AppendJSONObserve(dst []byte, groups, outcomes []int) []byte {
	return appendJSONPair(dst, "groups", "outcomes", groups, outcomes)
}

// AppendJSONDecide appends the JSON decide body:
// {"groups":[...],"decisions":[...]}.
func AppendJSONDecide(dst []byte, groups, decisions []int) []byte {
	return appendJSONPair(dst, "groups", "decisions", groups, decisions)
}

func appendJSONPair(dst []byte, ka, kb string, a, b []int) []byte {
	dst = append(dst, '{', '"')
	dst = append(dst, ka...)
	dst = append(dst, '"', ':')
	dst = appendJSONInts(dst, a)
	dst = append(dst, ',', '"')
	dst = append(dst, kb...)
	dst = append(dst, '"', ':')
	dst = appendJSONInts(dst, b)
	return append(dst, '}')
}

func appendJSONInts(dst []byte, vs []int) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// EncodeBody renders req's HTTP body for the given encoding, appended
// to dst. Report requests have no body.
func EncodeBody(dst []byte, req *Request, binary bool) []byte {
	switch {
	case req.Op == OpReport:
		return dst
	case binary:
		return AppendBinaryBatch(dst, req.Groups, req.Outcomes)
	case req.Op == OpDecide:
		return AppendJSONDecide(dst, req.Groups, req.Outcomes)
	default:
		return AppendJSONObserve(dst, req.Groups, req.Outcomes)
	}
}

// MonitorSpecJSON renders the PUT /v1/monitors/{id} body dfload uses to
// provision its target monitors: a huge tumbling window (nothing ever
// evicts during a run) with the given smoothing.
func MonitorSpecJSON(space *core.Space, outcomes []string, alpha float64) []byte {
	var dst []byte
	dst = append(dst, `{"space":[`...)
	for i, a := range space.Attrs() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = strconv.AppendQuote(dst, a.Name)
		dst = append(dst, `,"values":[`...)
		for j, v := range a.Values {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendQuote(dst, v)
		}
		dst = append(dst, ']', '}')
	}
	dst = append(dst, `],"outcomes":[`...)
	for i, o := range outcomes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendQuote(dst, o)
	}
	dst = append(dst, `],"window":{"size":1000000000},"alpha":`...)
	dst = strconv.AppendFloat(dst, alpha, 'g', -1, 64)
	return append(dst, '}')
}
