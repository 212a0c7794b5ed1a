package core

import (
	"errors"
	"math"
	"testing"
)

func binarySpace(t *testing.T) *Space {
	t.Helper()
	return MustSpace(Attr{Name: "group", Values: []string{"1", "2"}})
}

func TestNewCPTValidation(t *testing.T) {
	s := binarySpace(t)
	if _, err := NewCPT(nil, []string{"a", "b"}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := NewCPT(s, []string{"a"}); err == nil {
		t.Error("single outcome accepted")
	}
	if _, err := NewCPT(s, []string{"a", "a"}); err == nil {
		t.Error("duplicate outcome accepted")
	}
}

// TestTableCellsOverflow: groups × outcomes past math.MaxInt is an error
// from NewCounts and NewCPT, not a wrapped length that panics make.
func TestTableCellsOverflow(t *testing.T) {
	for _, c := range []struct {
		attrs    int
		outcomes []string
	}{
		{62, []string{"a", "b"}},           // 2^62 × 2 = 2^63
		{61, []string{"a", "b", "c", "d"}}, // 2^61 × 4 = 2^63
		{62, []string{"a", "b", "c"}},      // 2^62 × 3
	} {
		s := MustSpace(binaryAttrs(c.attrs)...)
		if _, err := NewCounts(s, c.outcomes); err == nil {
			t.Errorf("NewCounts accepted 2^%d groups × %d outcomes", c.attrs, len(c.outcomes))
		}
		if _, err := NewCPT(s, c.outcomes); err == nil {
			t.Errorf("NewCPT accepted 2^%d groups × %d outcomes", c.attrs, len(c.outcomes))
		}
	}
}

func TestSetRowValidation(t *testing.T) {
	s := binarySpace(t)
	c := MustCPT(s, []string{"no", "yes"})
	if err := c.SetRow(5, 1, 0.5, 0.5); err == nil {
		t.Error("out-of-range group accepted")
	}
	if err := c.SetRow(0, 1, 0.5); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := c.SetRow(0, 1, 0.6, 0.6); err == nil {
		t.Error("non-normalized probabilities accepted")
	}
	if err := c.SetRow(0, 1, -0.1, 1.1); err == nil {
		t.Error("negative probability accepted")
	}
	if err := c.SetRow(0, -1, 0.5, 0.5); err == nil {
		t.Error("negative weight accepted")
	}
	if err := c.SetRow(0, math.Inf(1), 0.5, 0.5); err == nil {
		t.Error("infinite weight accepted")
	}
	if err := c.SetRow(0, 1, 0.5, 0.5); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
}

func TestValidateRequiresTwoSupportedGroups(t *testing.T) {
	s := binarySpace(t)
	c := MustCPT(s, []string{"no", "yes"})
	if err := c.Validate(); err == nil {
		t.Error("empty CPT validated")
	}
	c.MustSetRow(0, 1, 0.5, 0.5)
	if err := c.Validate(); err == nil {
		t.Error("single-group CPT validated")
	}
	c.MustSetRow(1, 1, 0.2, 0.8)
	if err := c.Validate(); err != nil {
		t.Errorf("two-group CPT rejected: %v", err)
	}
}

func TestSupportedGroups(t *testing.T) {
	s := MustSpace(Attr{Name: "g", Values: []string{"a", "b", "c"}})
	c := MustCPT(s, []string{"no", "yes"})
	c.MustSetRow(0, 2, 0.5, 0.5)
	c.MustSetRow(2, 1, 0.1, 0.9)
	got := c.SupportedGroups()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("SupportedGroups = %v", got)
	}
	if c.Supported(1) {
		t.Error("group 1 should be unsupported")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := binarySpace(t)
	c := MustCPT(s, []string{"no", "yes"})
	c.MustSetRow(0, 1, 0.3, 0.7)
	c.MustSetRow(1, 1, 0.6, 0.4)
	d := c.Clone()
	d.MustSetRow(0, 1, 0.5, 0.5)
	if c.Prob(0, 0) != 0.3 {
		t.Fatal("Clone shares storage with original")
	}
}

// TestMarginalizeHandComputed checks marginalization against a fully
// hand-computed 2x2 example.
func TestMarginalizeHandComputed(t *testing.T) {
	s := MustSpace(
		Attr{Name: "a", Values: []string{"0", "1"}},
		Attr{Name: "b", Values: []string{"0", "1"}},
	)
	c := MustCPT(s, []string{"no", "yes"})
	// P(yes|a,b): (0,0)->0.1 w=1, (0,1)->0.5 w=3, (1,0)->0.2 w=2, (1,1)->0.8 w=2.
	c.MustSetRow(s.MustIndex(0, 0), 1, 0.9, 0.1)
	c.MustSetRow(s.MustIndex(0, 1), 3, 0.5, 0.5)
	c.MustSetRow(s.MustIndex(1, 0), 2, 0.8, 0.2)
	c.MustSetRow(s.MustIndex(1, 1), 2, 0.2, 0.8)
	m, err := c.Marginalize("a")
	if err != nil {
		t.Fatal(err)
	}
	// P(yes|a=0) = (1*0.1 + 3*0.5)/4 = 0.4; P(yes|a=1) = (2*0.2 + 2*0.8)/4 = 0.5.
	if got := m.Prob(0, 1); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("P(yes|a=0) = %v, want 0.4", got)
	}
	if got := m.Prob(1, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(yes|a=1) = %v, want 0.5", got)
	}
	if got := m.Weight(0); got != 4 {
		t.Errorf("weight(a=0) = %v, want 4", got)
	}
	if got := m.Weight(1); got != 4 {
		t.Errorf("weight(a=1) = %v, want 4", got)
	}
}

func TestMarginalizeSkipsUnsupported(t *testing.T) {
	s := MustSpace(
		Attr{Name: "a", Values: []string{"0", "1"}},
		Attr{Name: "b", Values: []string{"0", "1"}},
	)
	c := MustCPT(s, []string{"no", "yes"})
	c.MustSetRow(s.MustIndex(0, 0), 1, 0.9, 0.1)
	c.MustSetRow(s.MustIndex(1, 0), 1, 0.5, 0.5)
	// b=1 cells entirely unsupported.
	m, err := c.Marginalize("b")
	if err != nil {
		t.Fatal(err)
	}
	if m.Supported(1) {
		t.Error("b=1 should be unsupported after marginalization")
	}
	if got := m.Prob(0, 1); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("P(yes|b=0) = %v, want 0.3", got)
	}
}

func TestMarginalizeUnknownAttr(t *testing.T) {
	s := binarySpace(t)
	c := MustCPT(s, []string{"no", "yes"})
	if _, err := c.Marginalize("nope"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestOutcomeIndex(t *testing.T) {
	c := MustCPT(binarySpace(t), []string{"no", "yes"})
	if got := c.OutcomeIndex("yes"); got != 1 {
		t.Fatalf("OutcomeIndex(yes) = %d", got)
	}
	if got := c.OutcomeIndex("maybe"); got != -1 {
		t.Fatalf("OutcomeIndex(maybe) = %d", got)
	}
}

func TestBinaryRates(t *testing.T) {
	s := MustSpace(Attr{Name: "g", Values: []string{"a", "b", "c"}})
	c := MustCPT(s, []string{"no", "yes"})
	c.MustSetRow(0, 2, 0.3, 0.7)
	c.MustSetRow(2, 1, 0.9, 0.1) // group 1 left unsupported
	groups, rates, weights, err := c.BinaryRates()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0] != 0 || groups[1] != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if rates[0] != 0.7 || rates[1] != 0.1 || weights[0] != 2 || weights[1] != 1 {
		t.Fatalf("rates = %v weights = %v", rates, weights)
	}

	three := MustCPT(s, []string{"x", "y", "z"})
	if _, _, _, err := three.BinaryRates(); err == nil {
		t.Error("three-outcome CPT accepted")
	}
	single := MustCPT(s, []string{"no", "yes"})
	single.MustSetRow(1, 1, 0.5, 0.5)
	if _, _, _, err := single.BinaryRates(); !errors.Is(err, ErrDegenerateSupport) {
		t.Errorf("single supported group: got %v, want ErrDegenerateSupport", err)
	}
	if _, _, _, err := MustCPT(s, []string{"no", "yes"}).BinaryRates(); !errors.Is(err, ErrDegenerateSupport) {
		t.Error("empty CPT accepted")
	}
}
