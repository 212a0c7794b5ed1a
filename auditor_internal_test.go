package fairness

import (
	"context"
	"errors"
	"math"
	"strconv"
	"testing"

	"repro/internal/rng"
)

// TestAuditorRunErrorPrecedence: a report draws its bootstrap replicates
// and posterior samples on one fan-out that starts before the ladder,
// yet its errors keep the report's order — the ladder's, then the
// bootstrap's, then the posterior's — with their wording. Every case
// requests both engines.
func TestAuditorRunErrorPrecedence(t *testing.T) {
	space := MustSpace(Attr{Name: "gender", Values: []string{"M", "F"}}, Attr{Name: "race", Values: []string{"A", "B"}})
	outcomes := []string{"deny", "approve"}
	both := []Option{WithBootstrap(40, 0.9), WithCredible(40, 1, 0.9), WithSeed(3)}

	// Only gender=M is observed: the full table has two supported groups,
	// but the gender marginal of the ladder has one.
	oneGender := MustCounts(space, outcomes)
	for i := 0; i < 30; i++ {
		oneGender.MustAdd(0, i%2, 1)
		oneGender.MustAdd(1, (i/3)%2, 1)
	}
	_, err := MustAuditor(space, outcomes, both...).Run(context.Background(), oneGender)
	if !errors.Is(err, ErrDegenerateSupport) ||
		err.Error() != "core: subset [gender]: core: only 1 supported groups; need at least two to compare: fewer than two supported groups" {
		t.Errorf("degenerate ladder: err = %v", err)
	}

	// Exponential decay leaves non-integral counts, which the bootstrap
	// rejects; the posterior would have run.
	mon, err := NewMonitor(space, outcomes, 50, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := mon.Observe(i%4, (i/4)%2); err != nil {
			t.Fatal(err)
		}
	}
	_, err = mon.Audit(context.Background(), both...)
	if err == nil || err.Error() != "fairness: bootstrap: resample: bootstrap requires integer counts, total is 68.0961630806708" {
		t.Errorf("bootstrap on an exponential monitor: err = %v", err)
	}

	// WithCredible rejects a bad prior, so set one behind its back: the
	// bootstrap draws, then the posterior's preparation fails.
	full := MustCounts(space, outcomes)
	for g := 0; g < space.Size(); g++ {
		for y := range outcomes {
			full.MustAdd(g, y, float64(5+g*y))
		}
	}
	badPrior := MustAuditor(space, outcomes, both...)
	badPrior.cfg.credibleAlpha = 0
	_, err = badPrior.Run(context.Background(), full)
	if err == nil || err.Error() != "fairness: credible: bayes: alpha must be positive and finite, got 0" {
		t.Errorf("bad credible prior: err = %v", err)
	}
}

// BenchmarkHotPathReportDraw asserts the //df:hotpath contract on a
// report's draw path (rng.Multinomial with Binomial, rng.Dirichlet with
// Gamma and NormFloat64, and the scoring behind them): one bootstrap
// replicate and one posterior sample of the served report, ε and four
// metrics, on the 160-group audit table, with warm scratch.
// scripts/alloc_gate.sh fails unless it reports 0 allocs/op.
func BenchmarkHotPathReportDraw(b *testing.B) {
	// The 2×5×4×2×2 space of the repository's audit benchmark, filled
	// with a census-sized 32,561 decisions under a zipf population skew
	// and a rate ramp across groups, as its monitors are.
	var attrs []Attr
	for i, k := range []int{2, 5, 4, 2, 2} {
		values := make([]string, k)
		for v := range values {
			values[v] = strconv.Itoa(v)
		}
		attrs = append(attrs, Attr{Name: "a" + strconv.Itoa(i), Values: values})
	}
	space := MustSpace(attrs...)
	outcomes := []string{"y0", "y1"}
	weights := make([]float64, space.Size())
	for g := range weights {
		weights[g] = 1 / math.Sqrt(float64(g+1))
	}
	groups := rng.NewAlias(weights)
	r := rng.New(1)
	counts := MustCounts(space, outcomes)
	for i := 0; i < 32561; i++ {
		g := groups.Sample(r)
		y := 0
		if r.Bool(0.2 + 0.5*float64(g)/float64(space.Size()-1)) {
			y = 1
		}
		counts.MustAdd(g, y, 1)
	}
	a := MustAuditor(space, outcomes, WithAlpha(1),
		WithMetrics("worst_gap", "worst_ratio", "alpha_if", "demographic_parity"),
		WithBootstrap(50, 0.95), WithCredible(50, 1, 0.95))
	draws, bootErr, credErr := a.prepareDraws(a.metrics(), counts)
	if bootErr != nil || credErr != nil {
		b.Fatal(bootErr, credErr)
	}
	nb, nc := draws.replicates(), draws.cred.Samples()
	// One draw of each engine builds the worker's scratch.
	s := newDrawScratch()
	if err := draws.draw(s, 0); err != nil {
		b.Fatal(err)
	}
	if err := draws.draw(s, nb); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := draws.draw(s, i%nb); err != nil {
			b.Fatal(err)
		}
		if err := draws.draw(s, nb+i%nc); err != nil {
			b.Fatal(err)
		}
	}
}
