package core

import (
	"errors"
	"math"
	"math/bits"
	"reflect"
	"testing"
)

// TestEpsilonFig2 reproduces the paper's Figure 2 worked example exactly:
// two groups with Gaussian test scores N(10,1), N(12,1) and threshold
// 10.5 give ε = 2.337 with witness outcome "no".
func TestEpsilonFig2(t *testing.T) {
	s := binarySpace(t)
	c := MustCPT(s, []string{"no", "yes"})
	// Probabilities from Φ: P(yes|1) = 1-Φ(0.5) = 0.3085…, P(yes|2) = 1-Φ(-1.5) = 0.9332….
	pYes1 := 0.5 * math.Erfc(0.5/math.Sqrt2)
	pYes2 := 0.5 * math.Erfc(-1.5/math.Sqrt2)
	c.MustSetRow(0, 0.5, 1-pYes1, pYes1)
	c.MustSetRow(1, 0.5, 1-pYes2, pYes2)
	res := MustEpsilon(c)
	if !res.Finite {
		t.Fatal("expected finite epsilon")
	}
	if math.Abs(res.Epsilon-2.337) > 5e-4 {
		t.Fatalf("epsilon = %v, paper says 2.337", res.Epsilon)
	}
	if res.Witness.Outcome != 0 {
		t.Fatalf("witness outcome = %d, paper's max ratio is for outcome 'no'", res.Witness.Outcome)
	}
	// Paper: the log ratio for yes is -1.107 (group1 vs group2).
	yesRatio := math.Log(pYes1 / pYes2)
	if math.Abs(yesRatio+1.107) > 5e-4 {
		t.Fatalf("log ratio for yes = %v, paper says -1.107", yesRatio)
	}
	// Paper: bounds (e^-ε, e^ε) = (0.0966, 10.35).
	if lo := math.Exp(-res.Epsilon); math.Abs(lo-0.0966) > 5e-4 {
		t.Fatalf("e^-eps = %v, paper says 0.0966", lo)
	}
	if hi := math.Exp(res.Epsilon); math.Abs(hi-10.35) > 5e-2 {
		t.Fatalf("e^eps = %v, paper says 10.35", hi)
	}
}

// table1Counts returns the paper's Table 1 admissions data
// (gender × race → admit).
func table1Counts(t *testing.T) *Counts {
	t.Helper()
	s := MustSpace(
		Attr{Name: "gender", Values: []string{"A", "B"}},
		Attr{Name: "race", Values: []string{"1", "2"}},
	)
	c := MustCounts(s, []string{"decline", "admit"})
	add := func(g, r int, admitted, total float64) {
		c.MustAdd(s.MustIndex(g, r), 1, admitted)
		c.MustAdd(s.MustIndex(g, r), 0, total-admitted)
	}
	add(0, 0, 81, 87)   // gender A, race 1
	add(1, 0, 234, 270) // gender B, race 1
	add(0, 1, 192, 263) // gender A, race 2
	add(1, 1, 55, 80)   // gender B, race 2
	return c
}

// TestEpsilonTable1 reproduces the Simpson's-paradox example of Section
// 5.1: ε = 1.511 for the intersection, 0.2329 for gender alone, 0.8667
// for race alone — all within the 2ε = 3.022 bound of Theorem 3.1.
func TestEpsilonTable1(t *testing.T) {
	counts := table1Counts(t)
	full := MustEpsilon(counts.Empirical())
	if math.Abs(full.Epsilon-1.511) > 5e-4 {
		t.Fatalf("intersectional epsilon = %v, paper says 1.511", full.Epsilon)
	}
	gender, err := counts.Marginalize("gender")
	if err != nil {
		t.Fatal(err)
	}
	gEps := MustEpsilon(gender.Empirical())
	if math.Abs(gEps.Epsilon-0.2329) > 5e-4 {
		t.Fatalf("gender epsilon = %v, paper says 0.2329", gEps.Epsilon)
	}
	race, err := counts.Marginalize("race")
	if err != nil {
		t.Fatal(err)
	}
	rEps := MustEpsilon(race.Empirical())
	if math.Abs(rEps.Epsilon-0.8667) > 5e-4 {
		t.Fatalf("race epsilon = %v, paper says 0.8667", rEps.Epsilon)
	}
	bound := SubsetBound(full)
	if math.Abs(bound-3.022) > 1e-3 {
		t.Fatalf("2eps bound = %v, paper says 3.022", bound)
	}
	if gEps.Epsilon > bound || rEps.Epsilon > bound {
		t.Fatal("Theorem 3.1 bound violated")
	}
}

// TestEpsilonRandomizedResponse checks the §3.3 calibration example:
// randomized response has ε = ln 3.
func TestEpsilonRandomizedResponse(t *testing.T) {
	s := MustSpace(Attr{Name: "truth", Values: []string{"no", "yes"}})
	c := MustCPT(s, []string{"answer_no", "answer_yes"})
	// Answer truthfully w.p. 1/2, else a fresh coin flip: P(yes-answer|yes) = 3/4.
	c.MustSetRow(0, 0.5, 0.75, 0.25)
	c.MustSetRow(1, 0.5, 0.25, 0.75)
	res := MustEpsilon(c)
	if math.Abs(res.Epsilon-math.Log(3)) > 1e-12 {
		t.Fatalf("epsilon = %v, want ln 3 = %v", res.Epsilon, math.Log(3))
	}
	if math.Abs(RandomizedResponseEpsilon-1.0986) > 1e-4 {
		t.Fatalf("RandomizedResponseEpsilon = %v", RandomizedResponseEpsilon)
	}
}

func TestEpsilonPerfectFairnessIsZero(t *testing.T) {
	s := MustSpace(Attr{Name: "g", Values: []string{"a", "b", "c"}})
	c := MustCPT(s, []string{"no", "yes"})
	for g := 0; g < 3; g++ {
		c.MustSetRow(g, 1, 0.3, 0.7)
	}
	res := MustEpsilon(c)
	if res.Epsilon != 0 {
		t.Fatalf("epsilon = %v, want 0", res.Epsilon)
	}
}

func TestEpsilonInfiniteOnZeroProbability(t *testing.T) {
	s := binarySpace(t)
	c := MustCPT(s, []string{"no", "yes"})
	c.MustSetRow(0, 1, 1, 0) // group 1 never gets "yes"
	c.MustSetRow(1, 1, 0.5, 0.5)
	res := MustEpsilon(c)
	if res.Finite || !math.IsInf(res.Epsilon, 1) {
		t.Fatalf("expected +Inf epsilon, got %+v", res)
	}
	if res.Witness.Outcome != 1 {
		t.Fatalf("witness outcome = %d, want 1 (the zero-prob outcome)", res.Witness.Outcome)
	}
}

func TestEpsilonSkipsUniversallyZeroOutcome(t *testing.T) {
	s := binarySpace(t)
	c := MustCPT(s, []string{"a", "b", "c"})
	c.MustSetRow(0, 1, 0.4, 0.6, 0)
	c.MustSetRow(1, 1, 0.5, 0.5, 0)
	res := MustEpsilon(c)
	if !res.Finite {
		t.Fatal("universally-zero outcome should not force infinite epsilon")
	}
	want := math.Log(0.5 / 0.4) // outcome "a" dominates outcome "b" (0.6/0.5)
	if math.Abs(res.Epsilon-want) > 1e-12 {
		t.Fatalf("epsilon = %v, want %v", res.Epsilon, want)
	}
}

func TestEpsilonIgnoresUnsupportedGroups(t *testing.T) {
	s := MustSpace(Attr{Name: "g", Values: []string{"a", "b", "c"}})
	c := MustCPT(s, []string{"no", "yes"})
	c.MustSetRow(0, 1, 0.5, 0.5)
	c.MustSetRow(1, 1, 0.4, 0.6)
	// Group c has weight 0 and an extreme distribution; it must not count.
	c.MustSetRow(2, 0, 0, 0)
	res := MustEpsilon(c)
	want := math.Log(0.6 / 0.5) // only a vs b compared; "no" ratio is log(0.5/0.4) ≈ 0.223 > 0.182
	wantNo := math.Log(0.5 / 0.4)
	if wantNo > want {
		want = wantNo
	}
	if math.Abs(res.Epsilon-want) > 1e-12 {
		t.Fatalf("epsilon = %v, want %v", res.Epsilon, want)
	}
}

func TestEpsilonWitnessIdentifiesExtremes(t *testing.T) {
	s := MustSpace(Attr{Name: "g", Values: []string{"a", "b", "c"}})
	c := MustCPT(s, []string{"no", "yes"})
	c.MustSetRow(0, 1, 0.9, 0.1)
	c.MustSetRow(1, 1, 0.5, 0.5)
	c.MustSetRow(2, 1, 0.2, 0.8)
	res := MustEpsilon(c)
	// Max ratio is P(yes|c)/P(yes|a) = 8.
	if math.Abs(res.Epsilon-math.Log(8)) > 1e-12 {
		t.Fatalf("epsilon = %v, want ln 8", res.Epsilon)
	}
	if res.Witness.Outcome != 1 || res.Witness.GroupHi != 2 || res.Witness.GroupLo != 0 {
		t.Fatalf("witness = %+v", res.Witness)
	}
}

func TestFrameworkEpsilonTakesSupremum(t *testing.T) {
	s := binarySpace(t)
	mk := func(p1, p2 float64) *CPT {
		c := MustCPT(s, []string{"no", "yes"})
		c.MustSetRow(0, 1, 1-p1, p1)
		c.MustSetRow(1, 1, 1-p2, p2)
		return c
	}
	thetas := []*CPT{mk(0.5, 0.5), mk(0.4, 0.6), mk(0.3, 0.9)}
	res, err := FrameworkEpsilon(thetas)
	if err != nil {
		t.Fatal(err)
	}
	want := MustEpsilon(thetas[2]).Epsilon
	if res.Epsilon != want {
		t.Fatalf("framework epsilon = %v, want %v (supremum)", res.Epsilon, want)
	}
	if _, err := FrameworkEpsilon(nil); err == nil {
		t.Error("empty framework accepted")
	}
}

func TestEpsilonSubsetsCounts(t *testing.T) {
	counts := table1Counts(t)
	subs, err := EpsilonSubsetsCounts(counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 { // gender, race, gender×race
		t.Fatalf("got %d subsets, want 3", len(subs))
	}
	byKey := map[string]float64{}
	for _, s := range subs {
		byKey[s.Key()] = s.Result.Epsilon
	}
	if eps := byKey["gender"]; math.Abs(eps-0.2329) > 5e-4 {
		t.Errorf("gender = %v", eps)
	}
	if eps := byKey["race"]; math.Abs(eps-0.8667) > 5e-4 {
		t.Errorf("race = %v", eps)
	}
	if eps := byKey["gender,race"]; math.Abs(eps-1.511) > 5e-4 {
		t.Errorf("gender,race = %v", eps)
	}
}

func TestEpsilonSubsetsCPTMatchesCountsPath(t *testing.T) {
	counts := table1Counts(t)
	viaCounts, err := EpsilonSubsetsCounts(counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	viaCPT, err := EpsilonSubsetsCPT(counts.Empirical())
	if err != nil {
		t.Fatal(err)
	}
	if len(viaCounts) != len(viaCPT) {
		t.Fatalf("subset count mismatch: %d vs %d", len(viaCounts), len(viaCPT))
	}
	for i := range viaCounts {
		if viaCounts[i].Key() != viaCPT[i].Key() {
			t.Fatalf("subset order mismatch at %d", i)
		}
		if math.Abs(viaCounts[i].Result.Epsilon-viaCPT[i].Result.Epsilon) > 1e-9 {
			t.Errorf("subset %s: counts path %v vs CPT path %v",
				viaCounts[i].Key(), viaCounts[i].Result.Epsilon, viaCPT[i].Result.Epsilon)
		}
	}
}

func TestSortSubsetsByEpsilon(t *testing.T) {
	subs := []SubsetEpsilon{
		{Attrs: []string{"b"}, Result: EpsilonResult{Epsilon: 2}},
		{Attrs: []string{"a"}, Result: EpsilonResult{Epsilon: 1}},
		{Attrs: []string{"c"}, Result: EpsilonResult{Epsilon: 1}},
	}
	SortSubsetsByEpsilon(subs)
	if subs[0].Key() != "a" || subs[1].Key() != "c" || subs[2].Key() != "b" {
		t.Fatalf("sorted order: %v %v %v", subs[0].Key(), subs[1].Key(), subs[2].Key())
	}
}

// TestSortSubsetsByEpsilonTieBreak: equal ε values (including equal +Inf)
// order by the attribute subset in lexicographic slice order, so the
// ladder is a deterministic function of its contents regardless of the
// enumeration order the subsets arrived in.
func TestSortSubsetsByEpsilonTieBreak(t *testing.T) {
	inf := math.Inf(1)
	subs := []SubsetEpsilon{
		{Attrs: []string{"race"}, Result: EpsilonResult{Epsilon: inf}},
		{Attrs: []string{"gender", "race"}, Result: EpsilonResult{Epsilon: 1}},
		{Attrs: []string{"gender"}, Result: EpsilonResult{Epsilon: 1}},
		{Attrs: []string{"nationality"}, Result: EpsilonResult{Epsilon: inf}},
		{Attrs: []string{"gender", "nationality"}, Result: EpsilonResult{Epsilon: 1}},
	}
	// Shuffle-insensitive: sort twice from two different starting orders.
	SortSubsetsByEpsilon(subs)
	got := make([]string, len(subs))
	for i, s := range subs {
		got[i] = s.Key()
	}
	want := []string{"gender", "gender,nationality", "gender,race", "nationality", "race"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted order %v, want %v", got, want)
		}
	}
	// Proper slice-lexicographic comparison: {"a"} sorts before {"a","b"}
	// which sorts before {"ab"} (prefix before extension before longer
	// first element), unlike comparing the comma-joined keys.
	subs = []SubsetEpsilon{
		{Attrs: []string{"ab"}, Result: EpsilonResult{Epsilon: 1}},
		{Attrs: []string{"a", "b"}, Result: EpsilonResult{Epsilon: 1}},
		{Attrs: []string{"a"}, Result: EpsilonResult{Epsilon: 1}},
	}
	SortSubsetsByEpsilon(subs)
	if subs[0].Key() != "a" || subs[1].Key() != "a,b" || subs[2].Key() != "ab" {
		t.Fatalf("slice-lexicographic tie-break violated: %v %v %v",
			subs[0].Key(), subs[1].Key(), subs[2].Key())
	}
}

func TestBiasAmplification(t *testing.T) {
	alg := EpsilonResult{Epsilon: 2.65}
	data := EpsilonResult{Epsilon: 2.06}
	if got := BiasAmplification(alg, data); math.Abs(got-0.59) > 1e-12 {
		t.Fatalf("bias amplification = %v, want 0.59", got)
	}
	// Negative values ("reverse discrimination", the nationality row of
	// Table 3) must pass through unchanged.
	if got := BiasAmplification(EpsilonResult{Epsilon: 1.95}, EpsilonResult{Epsilon: 2.06}); got >= 0 {
		t.Fatalf("expected negative amplification, got %v", got)
	}
}

func TestEpsilonErrorOnInvalidCPT(t *testing.T) {
	s := binarySpace(t)
	c := MustCPT(s, []string{"no", "yes"})
	c.MustSetRow(0, 1, 0.5, 0.5)
	if _, err := Epsilon(c); err == nil {
		t.Fatal("single-group CPT accepted by Epsilon")
	}
}

// TestEpsilonSubsetsCountsLatticeMatchesDirect: the lattice-shared
// marginalization (each subset projected from a one-attribute-larger
// parent) must give, bit for bit, the marginals Counts.Marginalize forms
// from the same parents, on mixed cardinalities and non-integral cells,
// and ε ladders that agree with marginalizing every subset directly
// from the full table. The reference restates the parent rule instead
// of reading the subset plan, so a wrong plan cannot pass by agreeing
// with itself.
func TestEpsilonSubsetsCountsLatticeMatchesDirect(t *testing.T) {
	space := MustSpace(
		Attr{Name: "a", Values: []string{"0", "1"}},
		Attr{Name: "b", Values: []string{"0", "1", "2"}},
		Attr{Name: "c", Values: []string{"0", "1", "2", "3"}},
		Attr{Name: "d", Values: []string{"0", "1"}},
	)
	c := MustCounts(space, []string{"no", "yes", "maybe"})
	// Deterministic pseudo-random non-integral fill, every cell positive.
	v := uint64(12345)
	for i := range c.Cells() {
		v = v*6364136223846793005 + 1442695040888963407
		c.Cells()[i] = 0.1 + math.Ldexp(float64(v>>11), -47)
	}

	p := space.NumAttrs()
	full := 1<<p - 1
	namesOf := func(mask int) []string {
		var names []string
		for i, a := range space.Attrs() {
			if mask&(1<<i) != 0 {
				names = append(names, a.Name)
			}
		}
		return names
	}
	ref := map[int]*Counts{full: c}
	for size := p - 1; size >= 1; size-- {
		for mask := 1; mask < full; mask++ {
			if bits.OnesCount(uint(mask)) != size {
				continue
			}
			missing := full &^ mask
			m, err := ref[mask|missing&-missing].Marginalize(namesOf(mask)...)
			if err != nil {
				t.Fatal(err)
			}
			ref[mask] = m
		}
	}
	plan, err := NewSubsetPlan(space)
	if err != nil {
		t.Fatal(err)
	}
	marg := latticeMarginals(plan, c)
	for mask := 1; mask <= full; mask++ {
		got, want := &marg[mask], ref[mask]
		if !reflect.DeepEqual(got.Space().Attrs(), want.Space().Attrs()) {
			t.Fatalf("mask %b: space %v, want %v", mask, got.Space().Attrs(), want.Space().Attrs())
		}
		if len(got.Cells()) != len(want.Cells()) {
			t.Fatalf("mask %b: %d cells, want %d", mask, len(got.Cells()), len(want.Cells()))
		}
		for i, w := range want.Cells() {
			if math.Float64bits(got.Cells()[i]) != math.Float64bits(w) {
				t.Fatalf("mask %b cell %d: %v, want %v", mask, i, got.Cells()[i], w)
			}
		}
	}

	for _, alpha := range []float64{0, 1} {
		got, err := EpsilonSubsetsCounts(c, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != full {
			t.Fatalf("got %d subsets, want %d", len(got), full)
		}
		for _, sub := range got {
			if sub.Space == nil {
				t.Fatalf("subset %v missing Space", sub.Attrs)
			}
			m, err := c.Marginalize(sub.Attrs...)
			if err != nil {
				t.Fatal(err)
			}
			cpt, err := Estimate(m, alpha)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Epsilon(cpt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sub.Result.Epsilon-want.Epsilon) > 1e-12 {
				t.Fatalf("subset %v: lattice eps %v, direct eps %v",
					sub.Attrs, sub.Result.Epsilon, want.Epsilon)
			}
			if sub.Space.Size() != m.Space().Size() {
				t.Fatalf("subset %v: space size %d, want %d",
					sub.Attrs, sub.Space.Size(), m.Space().Size())
			}
		}
	}
}

func TestEpsilonAllocFree(t *testing.T) {
	space := MustSpace(
		Attr{Name: "a", Values: []string{"0", "1"}},
		Attr{Name: "b", Values: []string{"0", "1"}},
	)
	cpt := MustCPT(space, []string{"no", "yes"})
	for g := 0; g < space.Size(); g++ {
		p := 0.2 + 0.15*float64(g)
		cpt.MustSetRow(g, 1, 1-p, p)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Epsilon(cpt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Epsilon allocates %v times per call, want 0", allocs)
	}
}

func TestValidateDegenerateSentinel(t *testing.T) {
	space := MustSpace(Attr{Name: "a", Values: []string{"0", "1"}})
	cpt := MustCPT(space, []string{"no", "yes"})
	cpt.MustSetRow(0, 1, 0.5, 0.5) // only one supported group
	err := cpt.Validate()
	if err == nil {
		t.Fatal("degenerate CPT validated")
	}
	if !errors.Is(err, ErrDegenerateSupport) {
		t.Fatalf("error %v does not wrap ErrDegenerateSupport", err)
	}
}
