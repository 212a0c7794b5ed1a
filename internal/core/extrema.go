package core

import "math"

// RateExtrema summarizes a CPT by what the worst-case fairness metrics
// read from it: for every outcome y, the highest and lowest P(y|s) over
// the supported groups, the group attaining each, and the number of
// supported groups. The groups follow Epsilon's ascending strict-replace
// scan, so each is the lowest index among the groups tied at its
// extremum. An outcome with no supported group holds Hi = −Inf,
// Lo = +Inf and groups −1.
//
// ε (Definition 3.1), Ghosh et al.'s worst-case gap and ratio, and
// Maheshwari et al.'s α-IF are functions of these extrema alone, so a
// consumer that maintains them incrementally (the streaming Watch) can
// score those metrics without materializing a CPT; see ExtremaMetric.
type RateExtrema struct {
	Supported int
	Hi, Lo    []float64
	HiG, LoG  []int
}

// NewRateExtrema returns empty extrema for k outcomes.
func NewRateExtrema(k int) RateExtrema {
	x := RateExtrema{
		Hi:  make([]float64, k),
		Lo:  make([]float64, k),
		HiG: make([]int, k),
		LoG: make([]int, k),
	}
	x.Reset()
	return x
}

// Reset returns the extrema to the no-supported-group state.
func (x *RateExtrema) Reset() {
	x.Supported = 0
	for y := range x.Hi {
		x.ResetOutcome(y)
	}
}

// ResetOutcome returns one outcome's extrema to the no-supported-group
// sentinels, ready for a fresh ascending scan; Supported is untouched.
func (x *RateExtrema) ResetOutcome(y int) {
	x.Hi[y], x.HiG[y] = math.Inf(-1), -1
	x.Lo[y], x.LoG[y] = math.Inf(1), -1
}

// Observe folds group g's rate p for outcome y into an ascending scan:
// strict comparisons keep the lowest index among tied groups, exactly
// as Epsilon's scan does.
func (x *RateExtrema) Observe(y, g int, p float64) {
	if p > x.Hi[y] {
		x.Hi[y], x.HiG[y] = p, g
	}
	if p < x.Lo[y] {
		x.Lo[y], x.LoG[y] = p, g
	}
}

// Validate is CPT.Validate's support check for extrema: fewer than two
// supported groups fail with the same error, wrapping
// ErrDegenerateSupport. (The extrema of a table built from counts hold
// probabilities by construction, so there is no row to check.)
func (x *RateExtrema) Validate() error {
	if x.Supported < 2 {
		return degenerateSupport(x.Supported)
	}
	return nil
}

// Epsilon derives ε from the extrema with the same outcome order,
// skips, early +Inf return and tie rule as Epsilon over the CPT they
// summarize, so value and witness are bit-identical to it.
//
//df:hotpath
func (x *RateExtrema) Epsilon() (EpsilonResult, error) {
	if err := x.Validate(); err != nil {
		return EpsilonResult{}, err
	}
	res := EpsilonResult{Epsilon: 0, Finite: true}
	for y := range x.Hi {
		if epsilonStep(&res, y, x.HiG[y], x.LoG[y], x.Hi[y], x.Lo[y]) {
			break
		}
	}
	return res, nil
}

// epsilonStep folds one outcome's extrema into a running ε result, the
// per-outcome step shared by Epsilon and RateExtrema.Epsilon. An
// outcome no supported group reaches carries no fairness information
// and is skipped; a zero rate against a positive one makes ε infinite
// and reports true, ending the scan.
func epsilonStep(res *EpsilonResult, y, hiG, loG int, hiP, loP float64) bool {
	if !(hiP > 0) {
		return false
	}
	if loP == 0 {
		*res = EpsilonResult{
			Epsilon: math.Inf(1),
			Witness: Witness{Outcome: y, GroupHi: hiG, GroupLo: loG},
			Finite:  false,
		}
		return true
	}
	if d := math.Log(hiP) - math.Log(loP); d > res.Epsilon {
		res.Epsilon = d
		res.Witness = Witness{Outcome: y, GroupHi: hiG, GroupLo: loG}
	}
	return false
}

// ExtremaMetric is an optional Metric extension for metrics that are
// functions of the per-outcome rate extrema alone. EvalExtrema must
// return exactly what Eval returns on any valid CPT the extrema
// summarize — value and witness, bit for bit — including the
// ErrDegenerateSupport failure below two supported groups. Consumers
// that keep the extrema up to date (the streaming Watch) call it
// instead of building a CPT; everything else keeps calling Eval.
type ExtremaMetric interface {
	Metric
	EvalExtrema(x *RateExtrema) (MetricResult, error)
}

// EvalExtrema implements ExtremaMetric.
//
//df:hotpath
func (EpsilonMetric) EvalExtrema(x *RateExtrema) (MetricResult, error) {
	r, err := x.Epsilon()
	if err != nil {
		return MetricResult{}, err
	}
	return MetricResult{Value: r.Epsilon, Witness: r.Witness, Finite: r.Finite}, nil
}
