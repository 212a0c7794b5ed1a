package census

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
)

func TestGenerateSizesAndDeterminism(t *testing.T) {
	cfg := Config{TrainN: 2000, TestN: 1000, Seed: 5}
	train1, test1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(train1) != 2000 || len(test1) != 1000 {
		t.Fatalf("sizes %d/%d", len(train1), len(test1))
	}
	train2, test2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range train1 {
		if train1[i] != train2[i] {
			t.Fatalf("train row %d differs between runs", i)
		}
	}
	for i := range test1 {
		if test1[i] != test2[i] {
			t.Fatalf("test row %d differs between runs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a, _, err := Generate(Config{TrainN: 500, TestN: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(Config{TrainN: 500, TestN: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("%d/500 identical rows across seeds", same)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, _, err := Generate(Config{TrainN: 0, TestN: 10, Seed: 1}); err == nil {
		t.Error("zero train size accepted")
	}
	if _, _, err := Generate(Config{TrainN: 10, TestN: -1, Seed: 1}); err == nil {
		t.Error("negative test size accepted")
	}
}

// cellWeight returns the generating population share of the
// (gender, race, nationality) intersection.
func cellWeight(gender, race, nationality int) float64 {
	w := raceNatWeight[race][nationality]
	if gender == Male {
		return w * maleShare
	}
	return w * (1 - maleShare)
}

func TestCellWeightsSumToOne(t *testing.T) {
	var sum float64
	for g := 0; g < 2; g++ {
		for r := 0; r < 4; r++ {
			for n := 0; n < 2; n++ {
				sum += cellWeight(g, r, n)
			}
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("cell weights sum to %v", sum)
	}
}

func TestIncomeRatesWithinBounds(t *testing.T) {
	for g := 0; g < 2; g++ {
		for r := 0; r < 4; r++ {
			for n := 0; n < 2; n++ {
				rate := IncomeRate(g, r, n)
				if rate < 0.01 || rate > 0.95 {
					t.Errorf("rate(%d,%d,%d) = %v out of bounds", g, r, n, rate)
				}
			}
		}
	}
	// The reference intersection has the designed ordering: male > female,
	// US >= non-US, White > Black within each stratum.
	if IncomeRate(Male, White, US) <= IncomeRate(Female, White, US) {
		t.Error("male rate should exceed female rate")
	}
	if IncomeRate(Male, White, US) < IncomeRate(Male, White, NonUS) {
		t.Error("US rate should be at least non-US rate")
	}
	if IncomeRate(Male, White, US) <= IncomeRate(Male, Black, US) {
		t.Error("White rate should exceed Black rate in the generator")
	}
}

func TestEmpiricalRatesConvergeToGenerator(t *testing.T) {
	cfg := Config{TrainN: 200000, TestN: 1, Seed: 11}
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	space := Space()
	counts, err := IncomeCounts(space, train)
	if err != nil {
		t.Fatal(err)
	}
	// Check the three biggest cells (small cells are too noisy to pin).
	checks := []struct{ g, r, n int }{
		{Male, White, US}, {Female, White, US}, {Male, Black, US},
	}
	for _, c := range checks {
		idx := space.MustIndex(c.g, c.r, c.n)
		tot := counts.GroupTotal(idx)
		got := counts.N(idx, 1) / tot
		want := IncomeRate(c.g, c.r, c.n)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("cell (%d,%d,%d): empirical %v vs generating %v", c.g, c.r, c.n, got, want)
		}
		wantShare := cellWeight(c.g, c.r, c.n)
		if gotShare := tot / 200000; math.Abs(gotShare-wantShare) > 0.01 {
			t.Errorf("cell (%d,%d,%d): share %v vs %v", c.g, c.r, c.n, gotShare, wantShare)
		}
	}
}

func TestOverallPositiveRateNearAdult(t *testing.T) {
	train, _, err := Generate(Config{TrainN: 50000, TestN: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var pos int
	for _, p := range train {
		pos += p.Income
	}
	rate := float64(pos) / float64(len(train))
	// The real Adult training split has 24.08% positives.
	if rate < 0.20 || rate > 0.28 {
		t.Fatalf("positive rate %v far from Adult's 0.24", rate)
	}
}

// TestTable2Ladder is the headline shape check: the empirical-DF subset
// ladder of the paper's Table 2 must reproduce with the default
// configuration — nationality lowest, the full intersection highest, and
// the race×gender intersection substantially above either attribute
// alone.
func TestTable2Ladder(t *testing.T) {
	train, _, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts, err := IncomeCounts(Space(), train)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := core.EpsilonSubsetsCounts(counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	eps := map[string]float64{}
	for _, s := range subs {
		eps[s.Key()] = s.Result.Epsilon
	}
	full := eps["gender,race,nationality"]
	for key, v := range eps {
		if key != "gender,race,nationality" && v > full {
			t.Errorf("subset %s (%.3f) exceeds full intersection (%.3f)", key, v, full)
		}
		if key != "nationality" && v < eps["nationality"] {
			t.Errorf("subset %s (%.3f) below nationality (%.3f)", key, v, eps["nationality"])
		}
	}
	if eps["gender,race"] <= eps["gender"] || eps["gender,race"] <= eps["race"] {
		t.Errorf("race x gender (%.3f) not above gender (%.3f) and race (%.3f): the paper's intersectionality claim",
			eps["gender,race"], eps["gender"], eps["race"])
	}
	// Paper-value proximity (generous tolerances; the estimator is noisy
	// on small intersections).
	paper := map[string]float64{
		"nationality": 0.219, "race": 0.930, "gender": 1.03,
		"gender,nationality": 1.16, "race,nationality": 1.21,
		"gender,race": 1.76, "gender,race,nationality": 2.14,
	}
	tol := map[string]float64{
		"nationality": 0.15, "race": 0.35, "gender": 0.25,
		"gender,nationality": 0.40, "race,nationality": 0.40,
		"gender,race": 0.50, "gender,race,nationality": 0.60,
	}
	for key, want := range paper {
		if got, ok := eps[key]; !ok || math.Abs(got-want) > tol[key] {
			t.Errorf("subset %s: measured %.3f, paper %.3f (tol %.2f)", key, got, want, tol[key])
		}
	}
}

func TestTheorem32HoldsOnCensus(t *testing.T) {
	train, _, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts, err := IncomeCounts(Space(), train)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := counts.Smoothed(1, false)
	if err != nil {
		t.Fatal(err)
	}
	full := core.MustEpsilon(sm)
	subs, err := core.EpsilonSubsetsCPT(sm)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if s.Result.Epsilon > 2*full.Epsilon+1e-9 {
			t.Errorf("Theorem 3.2 violated on census for %v: %v > 2*%v", s.Attrs, s.Result.Epsilon, full.Epsilon)
		}
	}
}

func TestFeatureRanges(t *testing.T) {
	train, _, err := Generate(Config{TrainN: 5000, TestN: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range train {
		if p.Age < 17 || p.Age > 90 {
			t.Fatalf("row %d age %d", i, p.Age)
		}
		if p.EducationNum < 1 || p.EducationNum > 16 {
			t.Fatalf("row %d education %d", i, p.EducationNum)
		}
		if p.HoursPerWeek < 1 || p.HoursPerWeek > 99 {
			t.Fatalf("row %d hours %d", i, p.HoursPerWeek)
		}
		if p.CapitalGain < 0 || p.CapitalGain > 99999 {
			t.Fatalf("row %d capital gain %d", i, p.CapitalGain)
		}
		if p.Workclass < 0 || p.Workclass >= len(WorkclassValues) {
			t.Fatalf("row %d workclass %d", i, p.Workclass)
		}
		if p.Marital < 0 || p.Marital >= len(MaritalValues) {
			t.Fatalf("row %d marital %d", i, p.Marital)
		}
		if p.Occupation < 0 || p.Occupation >= len(OccupationValues) {
			t.Fatalf("row %d occupation %d", i, p.Occupation)
		}
		if p.Relationship < 0 || p.Relationship >= len(RelationshipValues) {
			t.Fatalf("row %d relationship %d", i, p.Relationship)
		}
	}
}

func TestRelationshipConsistentWithGenderAndMarital(t *testing.T) {
	train, _, err := Generate(Config{TrainN: 5000, TestN: 1, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range train {
		if p.Marital == 1 { // Married
			want := 1 // Wife
			if p.Gender == Male {
				want = 0 // Husband
			}
			if p.Relationship != want {
				t.Fatalf("row %d: married %s has relationship %s", i,
					GenderValues[p.Gender], RelationshipValues[p.Relationship])
			}
		} else if p.Relationship == 0 || p.Relationship == 1 {
			t.Fatalf("row %d: unmarried person has spousal relationship", i)
		}
	}
}

func TestIncomeCorrelatesWithProxies(t *testing.T) {
	train, _, err := Generate(Config{TrainN: 30000, TestN: 1, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	var marriedHi, marriedN, singleHi, singleN float64
	var eduHi, eduLo, eduHiN, eduLoN float64
	for _, p := range train {
		if p.Marital == 1 {
			marriedHi += float64(p.Income)
			marriedN++
		} else {
			singleHi += float64(p.Income)
			singleN++
		}
		if p.EducationNum >= 13 {
			eduHi += float64(p.Income)
			eduHiN++
		} else if p.EducationNum <= 9 {
			eduLo += float64(p.Income)
			eduLoN++
		}
	}
	if marriedHi/marriedN <= singleHi/singleN {
		t.Error("married rate should exceed unmarried rate (proxy signal)")
	}
	if eduHi/eduHiN <= eduLo/eduLoN {
		t.Error("high-education rate should exceed low-education rate")
	}
}

func TestGroupIndexAndGroups(t *testing.T) {
	space := Space()
	p := Person{Gender: Female, Race: API, Nationality: NonUS}
	if got, want := GroupIndex(space, p), space.MustIndex(Female, API, NonUS); got != want {
		t.Fatalf("GroupIndex = %d, want %d", got, want)
	}
	people := []Person{{Gender: Male}, {Gender: Female, Race: Black}}
	groups := Groups(people)
	if len(groups) != 2 || groups[0] != space.MustIndex(Male, White, US) {
		t.Fatalf("Groups = %v", groups)
	}
}

func TestPredictionCountsValidation(t *testing.T) {
	space := Space()
	people := []Person{{}, {Gender: Female}}
	if _, err := PredictionCounts(space, people, []int{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	counts, err := PredictionCounts(space, people, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if counts.Total() != 2 {
		t.Fatalf("total = %v", counts.Total())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	train, _, err := Generate(Config{TrainN: 200, TestN: 1, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	f := Frame(train)
	if f.NumRows() != 200 || f.NumCols() != 13 {
		t.Fatalf("frame shape %dx%d", f.NumRows(), f.NumCols())
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := table.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 200 {
		t.Fatalf("round-trip rows %d", g.NumRows())
	}
	if c, err := g.Column("income"); err != nil || c.Kind != table.Categorical {
		t.Fatal("income column missing or kind wrong after round trip")
	}
}

func TestDatasetShapes(t *testing.T) {
	train, test, err := Generate(Config{TrainN: 1000, TestN: 500, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	dsTrain, m, err := Dataset(train, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dsTrain.Len() != 1000 {
		t.Fatalf("train len %d", dsTrain.Len())
	}
	// 5 numeric + 4+4+8+5 one-hot = 26 features without protected attrs.
	if dsTrain.Width() != 26 {
		t.Fatalf("width %d, want 26", dsTrain.Width())
	}
	dsFull, _, err := Dataset(train, []string{"gender", "race", "nationality"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dsFull.Width() != 26+2+4+2 {
		t.Fatalf("full width %d, want 34", dsFull.Width())
	}
	// Test set reuses training moments.
	dsTest, _, err := Dataset(test, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if dsTest.Width() != dsTrain.Width() {
		t.Fatal("train/test width mismatch")
	}
	if _, _, err := Dataset(train, []string{"zodiac"}, nil); err == nil {
		t.Error("unknown protected attribute accepted")
	}
}

func TestDatasetStandardization(t *testing.T) {
	train, _, err := Generate(Config{TrainN: 3000, TestN: 1, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := Dataset(train, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// First five features are standardized numerics: mean ~0, var ~1.
	for j := 0; j < 5; j++ {
		var sum, sumSq float64
		for _, row := range ds.X {
			sum += row[j]
			sumSq += row[j] * row[j]
		}
		n := float64(ds.Len())
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Errorf("feature %d mean %v", j, mean)
		}
		if math.Abs(variance-1) > 1e-9 {
			t.Errorf("feature %d variance %v", j, variance)
		}
	}
}
