package core

import (
	"fmt"
	"reflect"
	"testing"
)

func threeAttrSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(
		Attr{Name: "gender", Values: []string{"M", "F"}},
		Attr{Name: "race", Values: []string{"White", "Black", "API", "Other"}},
		Attr{Name: "nationality", Values: []string{"US", "Other"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attr
	}{
		{"empty", nil},
		{"empty name", []Attr{{Name: "", Values: []string{"a"}}}},
		{"no values", []Attr{{Name: "x", Values: nil}}},
		{"dup attr", []Attr{{Name: "x", Values: []string{"a"}}, {Name: "x", Values: []string{"b"}}}},
		{"dup value", []Attr{{Name: "x", Values: []string{"a", "a"}}}},
		// 2^63 and 2^64 groups: the product wraps to a negative size or 0.
		{"63 binary attributes", binaryAttrs(63)},
		{"64 binary attributes", binaryAttrs(64)},
	}
	for _, c := range cases {
		if _, err := NewSpace(c.attrs...); err == nil {
			t.Errorf("%s: NewSpace accepted invalid input", c.name)
		}
	}
	// 2^62 groups still fit in an int; a Space allocates nothing per group.
	s, err := NewSpace(binaryAttrs(62)...)
	if err != nil {
		t.Fatalf("62 binary attributes: %v", err)
	}
	if s.Size() != 1<<62 {
		t.Fatalf("62 binary attributes: Size() = %d, want 2^62", s.Size())
	}
}

// binaryAttrs returns p binary attributes a0 … a(p−1).
func binaryAttrs(p int) []Attr {
	attrs := make([]Attr, p)
	for i := range attrs {
		attrs[i] = Attr{Name: fmt.Sprintf("a%d", i), Values: []string{"0", "1"}}
	}
	return attrs
}

func TestSpaceSize(t *testing.T) {
	s := threeAttrSpace(t)
	if got := s.Size(); got != 16 {
		t.Fatalf("Size = %d, want 16", got)
	}
	if got := s.NumAttrs(); got != 3 {
		t.Fatalf("NumAttrs = %d, want 3", got)
	}
}

func TestIndexDecodeRoundTrip(t *testing.T) {
	s := threeAttrSpace(t)
	seen := map[int]bool{}
	for g := 0; g < 2; g++ {
		for r := 0; r < 4; r++ {
			for n := 0; n < 2; n++ {
				idx, err := s.Index(g, r, n)
				if err != nil {
					t.Fatal(err)
				}
				if idx < 0 || idx >= s.Size() || seen[idx] {
					t.Fatalf("Index(%d,%d,%d) = %d invalid or duplicate", g, r, n, idx)
				}
				seen[idx] = true
				if got := s.Decode(idx); !reflect.DeepEqual(got, []int{g, r, n}) {
					t.Fatalf("Decode(%d) = %v, want [%d %d %d]", idx, got, g, r, n)
				}
			}
		}
	}
	if len(seen) != 16 {
		t.Fatalf("only %d distinct indices", len(seen))
	}
}

func TestIndexErrors(t *testing.T) {
	s := threeAttrSpace(t)
	if _, err := s.Index(0, 0); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := s.Index(2, 0, 0); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := s.Index(0, -1, 0); err == nil {
		t.Error("negative value accepted")
	}
}

func TestLabel(t *testing.T) {
	one := MustSpace(Attr{Name: "g", Values: []string{"a", "bb"}})
	three := threeAttrSpace(t)
	for _, tc := range []struct {
		space *Space
		group int
		want  string
	}{
		{one, 0, "g=a"},
		{one, 1, "g=bb"},
		{three, three.MustIndex(1, 1, 0), "gender=F,race=Black,nationality=US"},
		{three, 0, "gender=M,race=White,nationality=US"},
		{three, three.Size() - 1, "gender=F,race=Other,nationality=Other"},
	} {
		if got := tc.space.Label(tc.group); got != tc.want {
			t.Errorf("Label(%d) = %q, want %q", tc.group, got, tc.want)
		}
		if n := testing.AllocsPerRun(10, func() { tc.space.Label(tc.group) }); n != 1 {
			t.Errorf("Label(%d) allocates %v times, want 1", tc.group, n)
		}
	}
	for _, group := range []int{-1, three.Size()} {
		func() {
			defer func() {
				want := fmt.Sprintf("core: group index %d out of range [0,%d)", group, three.Size())
				if r := recover(); r != want {
					t.Errorf("Label(%d) panicked with %v, want %q", group, r, want)
				}
			}()
			three.Label(group)
		}()
	}
}

func TestIndexByValues(t *testing.T) {
	s := threeAttrSpace(t)
	idx, err := s.IndexByValues(map[string]string{
		"gender": "F", "race": "API", "nationality": "Other",
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := s.MustIndex(1, 2, 1); idx != want {
		t.Fatalf("IndexByValues = %d, want %d", idx, want)
	}
	if _, err := s.IndexByValues(map[string]string{"gender": "F"}); err == nil {
		t.Error("missing attribute accepted")
	}
	if _, err := s.IndexByValues(map[string]string{
		"gender": "X", "race": "API", "nationality": "US",
	}); err == nil {
		t.Error("unknown value accepted")
	}
}

func TestSubsetAndProject(t *testing.T) {
	s := threeAttrSpace(t)
	sub, pos, err := s.Subset("race", "nationality")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 8 {
		t.Fatalf("subset size = %d, want 8", sub.Size())
	}
	if !reflect.DeepEqual(pos, []int{1, 2}) {
		t.Fatalf("positions = %v", pos)
	}
	full := s.MustIndex(1, 3, 1) // F, Other, Other
	got := s.Project(full, sub, pos)
	if want := sub.MustIndex(3, 1); got != want {
		t.Fatalf("Project = %d, want %d", got, want)
	}
}

func TestSubsetErrors(t *testing.T) {
	s := threeAttrSpace(t)
	if _, _, err := s.Subset(); err == nil {
		t.Error("empty subset accepted")
	}
	if _, _, err := s.Subset("nope"); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, _, err := s.Subset("race", "race"); err == nil {
		t.Error("duplicate attribute accepted")
	}
}

func TestSubsetNamesEnumeration(t *testing.T) {
	s := threeAttrSpace(t)
	subs := s.SubsetNames()
	if len(subs) != 7 { // 2^3 - 1
		t.Fatalf("got %d subsets, want 7", len(subs))
	}
	// Sizes must be non-decreasing and the last subset must be the full set.
	for i := 1; i < len(subs); i++ {
		if len(subs[i]) < len(subs[i-1]) {
			t.Fatalf("subset sizes out of order: %v", subs)
		}
	}
	if got := subs[len(subs)-1]; len(got) != 3 {
		t.Fatalf("last subset = %v, want full set", got)
	}
	// All subsets distinct.
	seen := map[string]bool{}
	for _, sub := range subs {
		key := ""
		for _, n := range sub {
			key += n + "|"
		}
		if seen[key] {
			t.Fatalf("duplicate subset %v", sub)
		}
		seen[key] = true
	}
}

func TestAttrValueIndex(t *testing.T) {
	a := Attr{Name: "x", Values: []string{"p", "q"}}
	if got := a.ValueIndex("q"); got != 1 {
		t.Fatalf("ValueIndex(q) = %d", got)
	}
	if got := a.ValueIndex("zz"); got != -1 {
		t.Fatalf("ValueIndex(zz) = %d", got)
	}
	if got := a.Cardinality(); got != 2 {
		t.Fatalf("Cardinality = %d", got)
	}
}

func TestDecodePanicsOutOfRange(t *testing.T) {
	s := threeAttrSpace(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Decode out of range did not panic")
		}
	}()
	s.Decode(16)
}

func TestIndexOfValues(t *testing.T) {
	s := threeAttrSpace(t)
	got, err := s.IndexOfValues("F", "Black", "US")
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.IndexByValues(map[string]string{
		"gender": "F", "race": "Black", "nationality": "US",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("IndexOfValues = %d, IndexByValues = %d", got, want)
	}
	if _, err := s.IndexOfValues("F", "Black"); err == nil {
		t.Error("short value list accepted")
	}
	if _, err := s.IndexOfValues("F", "Martian", "US"); err == nil {
		t.Error("unknown value accepted")
	}
}

// TestDropStride pins the single-attribute removal arithmetic against
// Project: dropping the attribute at position pos via (g/div)*stride +
// g%stride must land every group on the same marginal index Project
// computes over the remaining attributes in their original order.
func TestDropStride(t *testing.T) {
	s := threeAttrSpace(t)
	attrs := s.Attrs()
	for pos := range attrs {
		var names []string
		for i, a := range attrs {
			if i != pos {
				names = append(names, a.Name)
			}
		}
		sub, positions, err := s.Subset(names...)
		if err != nil {
			t.Fatal(err)
		}
		div, stride := s.DropStride(pos)
		for g := 0; g < s.Size(); g++ {
			got := g/div*stride + g%stride
			want := s.Project(g, sub, positions)
			if got != want {
				t.Fatalf("pos %d group %d: DropStride arithmetic = %d, Project = %d", pos, g, got, want)
			}
		}
	}
}
