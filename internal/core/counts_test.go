package core

import (
	"fmt"
	"math"
	"testing"
)

func TestCountsBasics(t *testing.T) {
	s := binarySpace(t)
	c := MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 0, 3)
	c.MustAdd(0, 1, 7)
	c.MustAdd(1, 1, 5)
	if got := c.N(0, 1); got != 7 {
		t.Errorf("N(0,1) = %v", got)
	}
	if got := c.GroupTotal(0); got != 10 {
		t.Errorf("GroupTotal(0) = %v", got)
	}
	if got := c.OutcomeTotal(1); got != 12 {
		t.Errorf("OutcomeTotal(1) = %v", got)
	}
	if got := c.Total(); got != 15 {
		t.Errorf("Total = %v", got)
	}
}

func TestCountsAddValidation(t *testing.T) {
	s := binarySpace(t)
	c := MustCounts(s, []string{"no", "yes"})
	if err := c.Add(9, 0, 1); err == nil {
		t.Error("bad group accepted")
	}
	if err := c.Add(0, 9, 1); err == nil {
		t.Error("bad outcome accepted")
	}
	if err := c.Add(0, 0, math.NaN()); err == nil {
		t.Error("NaN delta accepted")
	}
	if err := c.Add(0, 0, -1); err == nil {
		t.Error("negative result accepted")
	}
	c.MustAdd(0, 0, 5)
	if err := c.Add(0, 0, -3); err != nil {
		t.Errorf("legal decrement rejected: %v", err)
	}
}

func TestEmpiricalMatchesEq6(t *testing.T) {
	s := binarySpace(t)
	c := MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 0, 2)
	c.MustAdd(0, 1, 8)
	c.MustAdd(1, 0, 9)
	c.MustAdd(1, 1, 1)
	cpt := c.Empirical()
	if got := cpt.Prob(0, 1); got != 0.8 {
		t.Errorf("P(yes|0) = %v", got)
	}
	if got := cpt.Prob(1, 1); got != 0.1 {
		t.Errorf("P(yes|1) = %v", got)
	}
	if got := cpt.Weight(0); got != 10 {
		t.Errorf("weight(0) = %v", got)
	}
	res := MustEpsilon(cpt)
	want := math.Log(0.8 / 0.1)
	if math.Abs(res.Epsilon-want) > 1e-12 {
		t.Errorf("epsilon = %v, want ln 8", res.Epsilon)
	}
}

func TestEmpiricalUnsupportedEmptyGroup(t *testing.T) {
	s := MustSpace(Attr{Name: "g", Values: []string{"a", "b", "c"}})
	c := MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 1, 4)
	c.MustAdd(0, 0, 6)
	c.MustAdd(2, 1, 1)
	c.MustAdd(2, 0, 9)
	cpt := c.Empirical()
	if cpt.Supported(1) {
		t.Fatal("empty group should be unsupported")
	}
}

func TestSmoothedMatchesEq7(t *testing.T) {
	s := binarySpace(t)
	c := MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 0, 2)
	c.MustAdd(0, 1, 8)
	c.MustAdd(1, 0, 9)
	c.MustAdd(1, 1, 1)
	cpt, err := c.Smoothed(1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 7 with alpha=1, |Y|=2: (8+1)/(10+2) = 0.75 and (1+1)/(10+2) = 1/6.
	if got := cpt.Prob(0, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("smoothed P(yes|0) = %v, want 0.75", got)
	}
	if got := cpt.Prob(1, 1); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("smoothed P(yes|1) = %v, want 1/6", got)
	}
}

func TestSmoothedMakesZeroCountsFinite(t *testing.T) {
	s := binarySpace(t)
	c := MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 0, 10) // group 0 never "yes"
	c.MustAdd(1, 0, 5)
	c.MustAdd(1, 1, 5)
	if res := MustEpsilon(c.Empirical()); res.Finite {
		t.Fatal("empirical epsilon should be infinite here")
	}
	cpt, err := c.Smoothed(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if res := MustEpsilon(cpt); !res.Finite {
		t.Fatal("smoothed epsilon should be finite")
	}
}

func TestSmoothedIncludeEmpty(t *testing.T) {
	s := MustSpace(Attr{Name: "g", Values: []string{"a", "b", "c"}})
	c := MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 0, 5)
	c.MustAdd(0, 1, 5)
	c.MustAdd(1, 0, 2)
	c.MustAdd(1, 1, 8)
	without, err := c.Smoothed(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if without.Supported(2) {
		t.Fatal("empty group supported without includeEmpty")
	}
	with, err := c.Smoothed(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !with.Supported(2) {
		t.Fatal("empty group unsupported with includeEmpty")
	}
	// The empty group gets the uniform prior predictive.
	if got := with.Prob(2, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("empty-group prob = %v, want 0.5", got)
	}
}

func TestSmoothedRejectsBadAlpha(t *testing.T) {
	s := binarySpace(t)
	c := MustCounts(s, []string{"no", "yes"})
	for _, alpha := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := c.Smoothed(alpha, false); err == nil {
			t.Errorf("alpha=%v accepted", alpha)
		}
	}
}

func TestCountsMarginalizeSums(t *testing.T) {
	counts := table1Counts(t)
	g, err := counts.Marginalize("gender")
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 1: gender A admits 273/350, gender B admits 289/350.
	if got := g.N(0, 1); got != 273 {
		t.Errorf("admits(gender A) = %v, want 273", got)
	}
	if got := g.GroupTotal(0); got != 350 {
		t.Errorf("total(gender A) = %v, want 350", got)
	}
	if got := g.N(1, 1); got != 289 {
		t.Errorf("admits(gender B) = %v, want 289", got)
	}
	r, err := counts.Marginalize("race")
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 1: race 1 admits 315/357, race 2 admits 247/343.
	if got, tot := r.N(0, 1), r.GroupTotal(0); got != 315 || tot != 357 {
		t.Errorf("race 1 = %v/%v, want 315/357", got, tot)
	}
	if got, tot := r.N(1, 1), r.GroupTotal(1); got != 247 || tot != 343 {
		t.Errorf("race 2 = %v/%v, want 247/343", got, tot)
	}
}

func TestFromObservations(t *testing.T) {
	s := binarySpace(t)
	c, err := FromObservations(s, []string{"no", "yes"}, []int{0, 0, 1, 1, 1}, []int{0, 1, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.N(1, 1); got != 2 {
		t.Errorf("N(1,1) = %v", got)
	}
	if got := c.Total(); got != 5 {
		t.Errorf("Total = %v", got)
	}
	if _, err := FromObservations(s, []string{"no", "yes"}, []int{0}, []int{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromObservations(s, []string{"no", "yes"}, []int{7}, []int{0}); err == nil {
		t.Error("bad group accepted")
	}
}

func TestCountsCloneIsDeep(t *testing.T) {
	s := binarySpace(t)
	c := MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 0, 1)
	d := c.Clone()
	d.MustAdd(0, 0, 5)
	if c.N(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestEmpiricalIntoMatchesEmpirical(t *testing.T) {
	s := binarySpace(t)
	c := MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 0, 30)
	c.MustAdd(0, 1, 70)
	c.MustAdd(1, 0, 55)
	c.MustAdd(1, 1, 45)
	want := c.Empirical()
	dst := MustCPT(s, []string{"no", "yes"})
	// Pre-dirty the buffer: Into must overwrite every row and weight.
	dst.MustSetRow(0, 3, 0.5, 0.5)
	dst.MustSetRow(1, 3, 0.5, 0.5)
	if err := c.EmpiricalInto(dst); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < s.Size(); g++ {
		if dst.Weight(g) != want.Weight(g) {
			t.Fatalf("weight[%d] = %v, want %v", g, dst.Weight(g), want.Weight(g))
		}
		for y := 0; y < 2; y++ {
			if dst.Prob(g, y) != want.Prob(g, y) {
				t.Fatalf("p[%d][%d] = %v, want %v", g, y, dst.Prob(g, y), want.Prob(g, y))
			}
		}
	}
}

func TestEmpiricalIntoClearsStaleSupport(t *testing.T) {
	s := binarySpace(t)
	c := MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 0, 5)
	c.MustAdd(0, 1, 5)
	// Group 1 has no observations; a stale supported row in dst must be
	// cleared, not survive.
	dst := MustCPT(s, []string{"no", "yes"})
	dst.MustSetRow(1, 9, 0.2, 0.8)
	if err := c.EmpiricalInto(dst); err != nil {
		t.Fatal(err)
	}
	if dst.Supported(1) {
		t.Fatal("stale support survived EmpiricalInto")
	}
	if dst.Prob(1, 1) != 0 {
		t.Fatal("stale probabilities survived EmpiricalInto")
	}
}

func TestSmoothedIntoMatchesSmoothed(t *testing.T) {
	s := binarySpace(t)
	c := MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 1, 10)
	c.MustAdd(1, 0, 4)
	c.MustAdd(1, 1, 6)
	for _, includeEmpty := range []bool{false, true} {
		want, err := c.Smoothed(0.5, includeEmpty)
		if err != nil {
			t.Fatal(err)
		}
		dst := MustCPT(s, []string{"no", "yes"})
		if err := c.SmoothedInto(dst, 0.5, includeEmpty); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < s.Size(); g++ {
			if dst.Weight(g) != want.Weight(g) {
				t.Fatalf("includeEmpty=%v weight[%d] = %v, want %v", includeEmpty, g, dst.Weight(g), want.Weight(g))
			}
			for y := 0; y < 2; y++ {
				if dst.Prob(g, y) != want.Prob(g, y) {
					t.Fatalf("includeEmpty=%v p mismatch at (%d,%d)", includeEmpty, g, y)
				}
			}
		}
	}
	if err := c.SmoothedInto(MustCPT(s, []string{"no", "yes"}), 0, false); err == nil {
		t.Error("alpha=0 accepted")
	}
	if err := c.SmoothedInto(nil, 1, false); err == nil {
		t.Error("nil destination accepted")
	}
	tiny := MustSpace(Attr{Name: "z", Values: []string{"only"}})
	if err := c.EmpiricalInto(MustCPT(tiny, []string{"no", "yes"})); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// TestEstimateMatchesEq6AndEq7: the estimator alpha selects is the
// paper's formula evaluated cell by cell, bit for bit, on seeded tables
// with empty groups and non-integral cells: Eq. 6 (and Empirical) at
// alpha = 0 and at any alpha that is not positive, NaN included, and
// Eq. 7 (and Smoothed without empty groups) at alpha > 0. Rows,
// weights and the zeroed rows of unsupported groups are all compared.
func TestEstimateMatchesEq6AndEq7(t *testing.T) {
	space := MustSpace(
		Attr{Name: "a", Values: []string{"0", "1", "2"}},
		Attr{Name: "b", Values: []string{"0", "1", "2", "3"}},
	)
	outcomes := []string{"no", "yes", "maybe"}
	k := len(outcomes)
	sameBits := func(t *testing.T, what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
	v := uint64(99)
	for seed := 0; seed < 20; seed++ {
		c := MustCounts(space, outcomes)
		for g := 0; g < space.Size(); g++ {
			v = v*6364136223846793005 + 1442695040888963407
			if v>>60 < 4 { // about a quarter of the groups stay empty
				continue
			}
			for y := 0; y < k; y++ {
				v = v*6364136223846793005 + 1442695040888963407
				n := float64(v >> 59) // some zero cells in supported rows
				if seed%2 == 1 {
					n = math.Ldexp(float64(v>>11), -50) // non-integral
				}
				c.MustAdd(g, y, n)
			}
		}
		for _, alpha := range []float64{0, -1, math.NaN(), 0.5, 1, 3} {
			got, err := Estimate(c, alpha)
			if err != nil {
				t.Fatal(err)
			}
			lib := c.Empirical()
			if alpha > 0 {
				if lib, err = c.Smoothed(alpha, false); err != nil {
					t.Fatal(err)
				}
			}
			a := alpha
			if !(a > 0) {
				a = 0
			}
			for g := 0; g < space.Size(); g++ {
				var ns float64
				for y := 0; y < k; y++ {
					ns += c.N(g, y)
				}
				wantW := ns
				if ns <= 0 {
					wantW = 0
				}
				sameBits(t, fmt.Sprintf("seed %d alpha %v weight[%d]", seed, alpha, g), got.Weight(g), wantW)
				sameBits(t, fmt.Sprintf("seed %d alpha %v library weight[%d]", seed, alpha, g), lib.Weight(g), wantW)
				for y := 0; y < k; y++ {
					var want float64
					switch {
					case ns <= 0:
						want = 0
					case a > 0:
						want = (c.N(g, y) + a) / (ns + float64(k)*a)
					default:
						want = c.N(g, y) / ns
					}
					what := fmt.Sprintf("seed %d alpha %v p[%d][%d]", seed, alpha, g, y)
					sameBits(t, what, got.Prob(g, y), want)
					sameBits(t, "library "+what, lib.Prob(g, y), want)
				}
			}
		}
	}

	c := MustCounts(space, outcomes)
	c.MustAdd(0, 0, 1)
	_, err := Estimate(c, math.Inf(1))
	want := c.SmoothedInto(MustCPT(space, outcomes), math.Inf(1), false)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("alpha=+Inf: error %v, want SmoothedInto's %v", err, want)
	}
	if EstimatorLabel(0) != "empirical (Eq. 6)" || EstimatorLabel(1.5) != "Dirichlet-smoothed, alpha=1.5 (Eq. 7)" {
		t.Fatalf("labels %q, %q", EstimatorLabel(0), EstimatorLabel(1.5))
	}
}

func TestCellsViewAndReset(t *testing.T) {
	s := binarySpace(t)
	c := MustCounts(s, []string{"no", "yes"})
	cells := c.Cells()
	if len(cells) != s.Size()*2 {
		t.Fatalf("Cells length %d, want %d", len(cells), s.Size()*2)
	}
	// The view is live: writes through it are visible to accessors.
	cells[0*2+1] = 42
	if got := c.N(0, 1); got != 42 {
		t.Fatalf("write through Cells not visible: N(0,1) = %v", got)
	}
	c.Reset()
	if c.Total() != 0 || c.N(0, 1) != 0 {
		t.Fatal("Reset left nonzero cells")
	}
}

func TestAddScaledAndMerge(t *testing.T) {
	s := binarySpace(t)
	a := MustCounts(s, []string{"no", "yes"})
	b := MustCounts(s, []string{"no", "yes"})
	a.MustAdd(0, 0, 4)
	a.MustAdd(1, 1, 2)
	b.MustAdd(0, 0, 1)
	b.MustAdd(0, 1, 3)
	if err := a.AddScaled(b, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := a.N(0, 0); got != 4.5 {
		t.Fatalf("N(0,0) = %v, want 4.5", got)
	}
	if got := a.N(0, 1); got != 1.5 {
		t.Fatalf("N(0,1) = %v, want 1.5", got)
	}
	if got := a.N(1, 1); got != 2 {
		t.Fatalf("N(1,1) = %v, want 2 (untouched)", got)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.N(0, 1); got != 4.5 {
		t.Fatalf("after Merge N(0,1) = %v, want 4.5", got)
	}
	// Scale 0 is an explicit no-op.
	before := a.N(0, 0)
	if err := a.AddScaled(b, 0); err != nil {
		t.Fatal(err)
	}
	if a.N(0, 0) != before {
		t.Fatal("scale 0 mutated the receiver")
	}
}

func TestAddScaledValidation(t *testing.T) {
	s := binarySpace(t)
	a := MustCounts(s, []string{"no", "yes"})
	b := MustCounts(s, []string{"no", "yes"})
	if err := a.AddScaled(nil, 1); err == nil {
		t.Error("nil source accepted")
	}
	for _, scale := range []float64{-1, math.Inf(1), math.NaN()} {
		if err := a.AddScaled(b, scale); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
	tiny := MustSpace(Attr{Name: "z", Values: []string{"only", "two", "three"}})
	if err := a.AddScaled(MustCounts(tiny, []string{"no", "yes"}), 1); err == nil {
		t.Error("shape mismatch accepted")
	}
}
