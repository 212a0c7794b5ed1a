package table

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleFrame(t *testing.T) *Frame {
	t.Helper()
	return MustFrame(
		NewCategorical("gender", []string{"M", "F", "F", "M", "F"}),
		NewCategorical("race", []string{"W", "B", "W", "W", "B"}),
		NewInt("age", []int64{30, 40, 25, 55, 35}),
		NewFloat("score", []float64{1.5, 2.0, 0.5, 3.0, 2.5}),
	)
}

// MustColumn is Column but panics on error.
func (f *Frame) MustColumn(name string) *Column {
	c, err := f.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

func TestNewFrameValidation(t *testing.T) {
	if _, err := NewFrame(); err == nil {
		t.Error("empty frame accepted")
	}
	if _, err := NewFrame(NewInt("", []int64{1})); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewFrame(NewInt("a", []int64{1}), NewInt("a", []int64{2})); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewFrame(NewInt("a", []int64{1}), NewInt("b", []int64{1, 2})); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFrameAccessors(t *testing.T) {
	f := sampleFrame(t)
	if f.NumRows() != 5 || f.NumCols() != 4 {
		t.Fatalf("shape = %dx%d", f.NumRows(), f.NumCols())
	}
	if got := f.Names(); !reflect.DeepEqual(got, []string{"gender", "race", "age", "score"}) {
		t.Fatalf("Names = %v", got)
	}
	c := f.MustColumn("age")
	if c.FloatAt(3) != 55 {
		t.Fatalf("age[3] = %v", c.FloatAt(3))
	}
	if _, err := f.Column("nope"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestCategoricalLevels(t *testing.T) {
	f := sampleFrame(t)
	g := f.MustColumn("gender")
	if got := g.Levels(); !reflect.DeepEqual(got, []string{"M", "F"}) {
		t.Fatalf("Levels = %v", got)
	}
	if g.codes[0] != 0 || g.codes[1] != 1 {
		t.Fatal("codes wrong")
	}
	if g.StringAt(2) != "F" {
		t.Fatalf("StringAt(2) = %q", g.StringAt(2))
	}
}

func TestColumnKindPanics(t *testing.T) {
	f := sampleFrame(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Levels on int column did not panic")
		}
	}()
	f.MustColumn("age").Levels()
}

func TestCSVRoundTrip(t *testing.T) {
	f := sampleFrame(t)
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Names(), f.Names()) {
		t.Fatalf("names after round trip: %v", g.Names())
	}
	if g.MustColumn("age").Kind != Int {
		t.Errorf("age inferred as %s", g.MustColumn("age").Kind)
	}
	if g.MustColumn("score").Kind != Float {
		t.Errorf("score inferred as %s", g.MustColumn("score").Kind)
	}
	if g.MustColumn("gender").Kind != Categorical {
		t.Errorf("gender inferred as %s", g.MustColumn("gender").Kind)
	}
	for i := 0; i < f.NumRows(); i++ {
		for _, name := range f.Names() {
			if f.MustColumn(name).StringAt(i) != g.MustColumn(name).StringAt(i) {
				t.Fatalf("row %d column %s mismatch", i, name)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty csv accepted")
	}
	// Ragged rows are rejected by encoding/csv itself.
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged csv accepted")
	}
}

func TestReadCSVHeaderOnly(t *testing.T) {
	f, err := ReadCSV(strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 0 || f.NumCols() != 2 {
		t.Fatalf("shape %dx%d", f.NumRows(), f.NumCols())
	}
}

func TestKindString(t *testing.T) {
	if Categorical.String() != "categorical" || Int.String() != "int" || Float.String() != "float" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
}
