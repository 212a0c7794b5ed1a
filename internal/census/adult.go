package census

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadAdult parses the real UCI Adult data format (adult.data /
// adult.test: 15 comma-separated fields, no header, "?" for missing) and
// applies the paper's preprocessing: the five race categories are merged
// to four (Amer-Indian-Eskimo joins Other), native-country is binarized
// to United-States / other, and income is binarized at $50K. Rows with a
// missing protected attribute or label are skipped; missing values in
// non-protected fields map to the "Other" bucket of the reduced schema.
//
// This lets every analysis in the repository run on the genuine dataset
// when available; the offline build environment uses the synthetic
// generator instead (see the package doc).
func LoadAdult(r io.Reader) ([]Person, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var out []Person
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "|") { // adult.test header line
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 15 {
			return nil, fmt.Errorf("census: line %d has %d fields, want 15", lineNo, len(fields))
		}
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		p, ok, err := adultRecord(fields)
		if err != nil {
			return nil, fmt.Errorf("census: line %d: %w", lineNo, err)
		}
		if ok {
			out = append(out, p)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("census: no usable rows")
	}
	return out, nil
}

// Adult column order: age, workclass, fnlwgt, education, education-num,
// marital-status, occupation, relationship, race, sex, capital-gain,
// capital-loss, hours-per-week, native-country, income.
func adultRecord(f []string) (Person, bool, error) {
	var p Person
	// Protected attributes; a missing value voids the row.
	switch f[9] {
	case "Male":
		p.Gender = Male
	case "Female":
		p.Gender = Female
	default:
		return p, false, nil
	}
	switch f[8] {
	case "White":
		p.Race = White
	case "Black":
		p.Race = Black
	case "Asian-Pac-Islander":
		p.Race = API
	case "Amer-Indian-Eskimo", "Other":
		p.Race = OtherRace // the paper's merge
	default:
		return p, false, nil
	}
	switch f[13] {
	case "United-States":
		p.Nationality = US
	case "?":
		return p, false, nil
	default:
		p.Nationality = NonUS
	}
	// Label; adult.test suffixes a period.
	switch strings.TrimSuffix(f[14], ".") {
	case ">50K":
		p.Income = 1
	case "<=50K":
		p.Income = 0
	default:
		return p, false, nil
	}

	var err error
	if p.Age, err = atoiClamped(f[0], 17, 90); err != nil {
		return p, false, fmt.Errorf("age: %w", err)
	}
	if p.EducationNum, err = atoiClamped(f[4], 1, 16); err != nil {
		return p, false, fmt.Errorf("education-num: %w", err)
	}
	if p.CapitalGain, err = atoiClamped(f[10], 0, 99999); err != nil {
		return p, false, fmt.Errorf("capital-gain: %w", err)
	}
	if p.CapitalLoss, err = atoiClamped(f[11], 0, 99999); err != nil {
		return p, false, fmt.Errorf("capital-loss: %w", err)
	}
	if p.HoursPerWeek, err = atoiClamped(f[12], 1, 99); err != nil {
		return p, false, fmt.Errorf("hours-per-week: %w", err)
	}

	p.Workclass = adultWorkclass(f[1])
	p.Marital = adultMarital(f[5])
	p.Occupation = adultOccupation(f[6])
	p.Relationship = adultRelationship(f[7])
	return p, true, nil
}

func atoiClamped(s string, lo, hi int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	return clampInt(v, lo, hi), nil
}

// adultWorkclass maps the 8 UCI categories onto the reduced schema.
func adultWorkclass(v string) int {
	switch v {
	case "Private":
		return 0
	case "Self-emp-not-inc", "Self-emp-inc":
		return 1
	case "Federal-gov", "State-gov", "Local-gov":
		return 2
	default: // Without-pay, Never-worked, ?
		return 3
	}
}

// adultMarital maps the 7 UCI categories onto the reduced schema.
func adultMarital(v string) int {
	switch v {
	case "Never-married":
		return 0
	case "Married-civ-spouse", "Married-AF-spouse", "Married-spouse-absent":
		return 1
	case "Divorced", "Separated":
		return 2
	default: // Widowed
		return 3
	}
}

// adultOccupation maps the 14 UCI categories onto the reduced schema's
// eight buckets.
func adultOccupation(v string) int {
	switch v {
	case "Prof-specialty", "Tech-support":
		return 0
	case "Exec-managerial", "Protective-serv":
		return 1
	case "Craft-repair", "Farming-fishing", "Machine-op-inspct":
		return 2
	case "Adm-clerical":
		return 3
	case "Sales":
		return 4
	case "Other-service", "Priv-house-serv":
		return 5
	case "Transport-moving", "Armed-Forces":
		return 6
	default: // Handlers-cleaners, ?
		return 7
	}
}

// adultRelationship maps the 6 UCI categories onto the reduced schema.
func adultRelationship(v string) int {
	switch v {
	case "Husband":
		return 0
	case "Wife":
		return 1
	case "Not-in-family":
		return 2
	case "Own-child":
		return 4
	default: // Unmarried, Other-relative
		return 3
	}
}
