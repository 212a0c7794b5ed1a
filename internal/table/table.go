// Package table is a minimal typed dataframe used to move tabular data
// between CSV files, the synthetic census generator, the fairness
// auditors and the classifiers. It supports exactly what the case study
// needs: categorical (dictionary-encoded string), integer and float
// columns, CSV round-trips and column summaries.
package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Kind enumerates column types.
type Kind int

const (
	// Categorical columns hold dictionary-encoded strings.
	Categorical Kind = iota
	// Int columns hold int64 values.
	Int
	// Float columns hold float64 values.
	Float
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Int:
		return "int"
	case Float:
		return "float"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Column is one named, typed column.
type Column struct {
	Name string
	Kind Kind

	// Categorical storage: codes index into levels.
	codes  []int
	levels []string
	lookup map[string]int

	ints   []int64
	floats []float64
}

// NewCategorical creates a categorical column from string values.
func NewCategorical(name string, values []string) *Column {
	c := &Column{Name: name, Kind: Categorical, lookup: map[string]int{}}
	c.codes = make([]int, len(values))
	for i, v := range values {
		c.codes[i] = c.internLevel(v)
	}
	return c
}

// NewInt creates an integer column.
func NewInt(name string, values []int64) *Column {
	return &Column{Name: name, Kind: Int, ints: append([]int64(nil), values...)}
}

// NewFloat creates a float column.
func NewFloat(name string, values []float64) *Column {
	return &Column{Name: name, Kind: Float, floats: append([]float64(nil), values...)}
}

func (c *Column) internLevel(v string) int {
	if code, ok := c.lookup[v]; ok {
		return code
	}
	code := len(c.levels)
	c.levels = append(c.levels, v)
	c.lookup[v] = code
	return code
}

// Len returns the number of rows.
func (c *Column) Len() int {
	switch c.Kind {
	case Categorical:
		return len(c.codes)
	case Int:
		return len(c.ints)
	default:
		return len(c.floats)
	}
}

// Levels returns the distinct values of a categorical column in first-
// appearance order. It panics for non-categorical columns.
func (c *Column) Levels() []string {
	c.mustKind(Categorical)
	return append([]string(nil), c.levels...)
}

// StringAt renders the value at row i as a string.
func (c *Column) StringAt(i int) string {
	switch c.Kind {
	case Categorical:
		return c.levels[c.codes[i]]
	case Int:
		return strconv.FormatInt(c.ints[i], 10)
	default:
		return strconv.FormatFloat(c.floats[i], 'g', -1, 64)
	}
}

// FloatAt returns the numeric value at row i for Int or Float columns.
func (c *Column) FloatAt(i int) float64 {
	switch c.Kind {
	case Int:
		return float64(c.ints[i])
	case Float:
		return c.floats[i]
	}
	panic(fmt.Sprintf("table: FloatAt on %s column %q", c.Kind, c.Name))
}

func (c *Column) mustKind(k Kind) {
	if c.Kind != k {
		panic(fmt.Sprintf("table: column %q is %s, not %s", c.Name, c.Kind, k))
	}
}

// Frame is an ordered collection of equal-length columns.
type Frame struct {
	cols  []*Column
	index map[string]int
}

// NewFrame builds a frame, checking that names are unique and lengths
// agree.
func NewFrame(cols ...*Column) (*Frame, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("table: frame needs at least one column")
	}
	f := &Frame{index: map[string]int{}}
	n := cols[0].Len()
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("table: column %d has empty name", i)
		}
		if _, dup := f.index[c.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q", c.Name)
		}
		if c.Len() != n {
			return nil, fmt.Errorf("table: column %q has %d rows, want %d", c.Name, c.Len(), n)
		}
		f.index[c.Name] = i
		f.cols = append(f.cols, c)
	}
	return f, nil
}

// MustFrame is NewFrame but panics on error.
func MustFrame(cols ...*Column) *Frame {
	f, err := NewFrame(cols...)
	if err != nil {
		panic(err)
	}
	return f
}

// NumRows returns the row count.
func (f *Frame) NumRows() int { return f.cols[0].Len() }

// NumCols returns the column count.
func (f *Frame) NumCols() int { return len(f.cols) }

// Names returns the column names in order.
func (f *Frame) Names() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name
	}
	return out
}

// Column returns the named column.
func (f *Frame) Column(name string) (*Column, error) {
	i, ok := f.index[name]
	if !ok {
		return nil, fmt.Errorf("table: no column %q", name)
	}
	return f.cols[i], nil
}

// WriteCSV writes the frame with a header row.
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.Names()); err != nil {
		return fmt.Errorf("table: write header: %w", err)
	}
	record := make([]string, len(f.cols))
	for row := 0; row < f.NumRows(); row++ {
		for i, c := range f.cols {
			record[i] = c.StringAt(row)
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("table: write row %d: %w", row, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV with a header row, inferring each column's kind:
// Int if every value parses as an integer, else Float if every value
// parses as a number, else Categorical.
func ReadCSV(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table: read csv: %w", err)
	}
	if len(records) < 1 {
		return nil, fmt.Errorf("table: csv has no header")
	}
	header := records[0]
	rows := records[1:]
	cols := make([]*Column, len(header))
	for j, name := range header {
		raw := make([]string, len(rows))
		for i, rec := range rows {
			if len(rec) != len(header) {
				return nil, fmt.Errorf("table: row %d has %d fields, want %d", i+1, len(rec), len(header))
			}
			raw[i] = rec[j]
		}
		cols[j] = inferColumn(name, raw)
	}
	return NewFrame(cols...)
}

func inferColumn(name string, raw []string) *Column {
	allInt, allFloat := len(raw) > 0, len(raw) > 0
	for _, v := range raw {
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			allInt = false
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			allFloat = false
		}
		if !allInt && !allFloat {
			break
		}
	}
	switch {
	case allInt:
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i], _ = strconv.ParseInt(v, 10, 64)
		}
		return NewInt(name, vals)
	case allFloat:
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i], _ = strconv.ParseFloat(v, 64)
		}
		return NewFloat(name, vals)
	default:
		return NewCategorical(name, raw)
	}
}
