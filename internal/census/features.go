package census

import (
	"fmt"
	"math"

	"repro/internal/classify"
)

// Dataset builds a classify.Dataset from people, using the base features
// plus the named protected attributes as model inputs. Valid protected
// names are "gender", "race" and "nationality".
//
// Numeric features are standardized using the supplied moments so train
// and test share one scaling; pass nil to compute moments from people
// (do this for the training set, then reuse its moments for the test
// set via the returned Moments).
func Dataset(people []Person, protected []string, m *Moments) (classify.Dataset, *Moments, error) {
	for _, name := range protected {
		switch name {
		case "gender", "race", "nationality":
		default:
			return classify.Dataset{}, nil, fmt.Errorf("census: unknown protected attribute %q", name)
		}
	}
	numeric := buildNumeric(people)
	if m == nil {
		m = momentsOf(numeric)
	}
	// Feature layout: standardized numerics, then one-hots.
	var names []string
	names = append(names, "age", "education_num", "hours_per_week", "capital_gain_log", "capital_loss_log")
	type catCol struct {
		name   string
		levels []string
		value  func(Person) int
	}
	catCols := []catCol{
		{"workclass", WorkclassValues, func(p Person) int { return p.Workclass }},
		{"marital_status", MaritalValues, func(p Person) int { return p.Marital }},
		{"occupation", OccupationValues, func(p Person) int { return p.Occupation }},
		{"relationship", RelationshipValues, func(p Person) int { return p.Relationship }},
	}
	for _, sel := range protected {
		switch sel {
		case "gender":
			catCols = append(catCols, catCol{"gender", GenderValues, func(p Person) int { return p.Gender }})
		case "race":
			catCols = append(catCols, catCol{"race", RaceValues, func(p Person) int { return p.Race }})
		case "nationality":
			catCols = append(catCols, catCol{"nationality", NationalityValues, func(p Person) int { return p.Nationality }})
		}
	}
	width := 5
	for _, c := range catCols {
		for _, lv := range c.levels {
			names = append(names, c.name+"="+lv)
		}
		width += len(c.levels)
	}
	x := make([][]float64, len(people))
	flat := make([]float64, len(people)*width)
	y := make([]int, len(people))
	for i, p := range people {
		row := flat[i*width : (i+1)*width]
		for j := 0; j < 5; j++ {
			if m.Std[j] > 0 {
				row[j] = (numeric[i][j] - m.Mean[j]) / m.Std[j]
			}
		}
		off := 5
		for _, c := range catCols {
			row[off+c.value(p)] = 1
			off += len(c.levels)
		}
		x[i] = row
		y[i] = p.Income
	}
	ds, err := classify.NewDataset(x, y, names)
	if err != nil {
		return classify.Dataset{}, nil, err
	}
	return ds, m, nil
}

// Moments are the training-set standardization statistics of the five
// numeric features.
type Moments struct {
	Mean [5]float64
	Std  [5]float64
}

func buildNumeric(people []Person) [][5]float64 {
	out := make([][5]float64, len(people))
	for i, p := range people {
		out[i] = [5]float64{
			float64(p.Age),
			float64(p.EducationNum),
			float64(p.HoursPerWeek),
			math.Log1p(float64(p.CapitalGain)),
			math.Log1p(float64(p.CapitalLoss)),
		}
	}
	return out
}

func momentsOf(numeric [][5]float64) *Moments {
	var m Moments
	n := float64(len(numeric))
	if n == 0 {
		return &m
	}
	var sum, sumSq [5]float64
	for _, row := range numeric {
		for j, v := range row {
			sum[j] += v
			sumSq[j] += v * v
		}
	}
	for j := range sum {
		m.Mean[j] = sum[j] / n
		variance := sumSq[j]/n - m.Mean[j]*m.Mean[j]
		if variance > 0 {
			m.Std[j] = math.Sqrt(variance)
		}
	}
	return &m
}

// Groups returns each person's intersectional group index in Space(),
// parallel to people.
func Groups(people []Person) []int {
	space := Space()
	out := make([]int, len(people))
	for i, p := range people {
		out[i] = GroupIndex(space, p)
	}
	return out
}
