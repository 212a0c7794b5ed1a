// Package core implements differential fairness (DF), the primary
// contribution of Foulds & Pan, "An Intersectional Definition of
// Fairness" (ICDE 2020).
//
// The central abstraction is a protected-attribute Space
// A = S1 × S2 × … × Sp (Definition 3.1) together with a conditional
// probability table (CPT) holding P(M(x)=y | s, θ) for every intersection
// s ∈ A, plus the group weights P(s | θ). From a CPT the package computes:
//
//   - ε, the differential-fairness parameter (Definition 3.1), with the
//     witnessing outcome/group pair;
//   - empirical DF from counts (Definition 4.2 / Eq. 6) and the
//     Dirichlet-smoothed estimator (Eq. 7);
//   - marginal CPTs over any subset of the protected attributes, which
//     realizes Theorems 3.1/3.2 (the 2ε subset guarantee);
//   - the Bayesian posterior-odds privacy bound (Eq. 4) and the expected
//     utility disparity bound (Eq. 5);
//   - bias amplification ε2 − ε1 (Section 4.1);
//   - Simpson-reversal detection for the intersectional worked example
//     (Section 5.1).
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Attr is one discrete protected attribute, e.g. gender or race.
type Attr struct {
	Name   string
	Values []string
}

// Cardinality returns the number of values the attribute can take.
func (a Attr) Cardinality() int { return len(a.Values) }

// ValueIndex returns the index of the named value, or -1 if absent.
func (a Attr) ValueIndex(value string) int {
	for i, v := range a.Values {
		if v == value {
			return i
		}
	}
	return -1
}

// Space is the Cartesian product A = S1 × … × Sp of protected attributes.
// Group indices enumerate the product in row-major order with the last
// attribute varying fastest.
type Space struct {
	attrs   []Attr
	strides []int
	size    int
}

// NewSpace builds a Space from the given attributes. Every attribute must
// have a unique non-empty name and at least one value, and the number of
// groups must fit in an int.
func NewSpace(attrs ...Attr) (*Space, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("core: space needs at least one attribute")
	}
	seen := map[string]bool{}
	size := 1
	for _, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("core: attribute with empty name")
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("core: duplicate attribute %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("core: attribute %q has no values", a.Name)
		}
		vseen := map[string]bool{}
		for _, v := range a.Values {
			if vseen[v] {
				return nil, fmt.Errorf("core: attribute %q has duplicate value %q", a.Name, v)
			}
			vseen[v] = true
		}
		if size > math.MaxInt/len(a.Values) {
			return nil, fmt.Errorf("core: space has more groups than an int can count (at attribute %q)", a.Name)
		}
		size *= len(a.Values)
	}
	s := &Space{
		attrs:   append([]Attr(nil), attrs...),
		strides: make([]int, len(attrs)),
		size:    size,
	}
	stride := 1
	for i := len(attrs) - 1; i >= 0; i-- {
		s.strides[i] = stride
		stride *= len(attrs[i].Values)
	}
	return s, nil
}

// MustSpace is NewSpace but panics on error; for tests and literals.
func MustSpace(attrs ...Attr) *Space {
	s, err := NewSpace(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Attrs returns a copy of the attribute list.
func (s *Space) Attrs() []Attr { return append([]Attr(nil), s.attrs...) }

// NumAttrs returns the number of protected attributes p.
func (s *Space) NumAttrs() int { return len(s.attrs) }

// Size returns |A|, the number of intersectional groups.
func (s *Space) Size() int { return s.size }

// AttrIndex returns the position of the named attribute.
func (s *Space) AttrIndex(name string) (int, bool) {
	for i, a := range s.attrs {
		if a.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Index encodes one value index per attribute into a group index.
func (s *Space) Index(values ...int) (int, error) {
	if len(values) != len(s.attrs) {
		return 0, fmt.Errorf("core: Index got %d values for %d attributes", len(values), len(s.attrs))
	}
	idx := 0
	for i, v := range values {
		if v < 0 || v >= len(s.attrs[i].Values) {
			return 0, fmt.Errorf("core: value %d out of range for attribute %q", v, s.attrs[i].Name)
		}
		idx += v * s.strides[i]
	}
	return idx, nil
}

// MustIndex is Index but panics on error.
func (s *Space) MustIndex(values ...int) int {
	idx, err := s.Index(values...)
	if err != nil {
		panic(err)
	}
	return idx
}

// Decode expands a group index back into one value index per attribute.
func (s *Space) Decode(group int) []int {
	out := make([]int, len(s.attrs))
	s.DecodeInto(group, out)
	return out
}

// DecodeInto is Decode without allocation; dst must have length NumAttrs.
func (s *Space) DecodeInto(group int, dst []int) {
	s.checkGroup(group)
	for i := range s.attrs {
		dst[i] = group / s.strides[i] % len(s.attrs[i].Values)
	}
}

// checkGroup panics on a group index outside the space.
func (s *Space) checkGroup(group int) {
	if group < 0 || group >= s.size {
		panic(fmt.Sprintf("core: group index %d out of range [0,%d)", group, s.size))
	}
}

// value returns the name of attribute i's value in group.
func (s *Space) value(group, i int) string {
	a := &s.attrs[i]
	return a.Values[group/s.strides[i]%len(a.Values)]
}

// Label renders a group index as "name=value,…" for diagnostics and
// reports. It builds the label in one pre-sized allocation: a report
// renders two labels per ladder row.
func (s *Space) Label(group int) string {
	s.checkGroup(group)
	n := len(s.attrs) - 1 // separators
	for i, a := range s.attrs {
		n += len(a.Name) + 1 + len(s.value(group, i))
	}
	var b strings.Builder
	b.Grow(n)
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Name)
		b.WriteByte('=')
		b.WriteString(s.value(group, i))
	}
	return b.String()
}

// IndexByValues encodes named attribute values ("gender"->"F", …) into a
// group index. Every attribute of the space must be present.
func (s *Space) IndexByValues(values map[string]string) (int, error) {
	idxs := make([]int, len(s.attrs))
	for i, a := range s.attrs {
		v, ok := values[a.Name]
		if !ok {
			return 0, fmt.Errorf("core: missing value for attribute %q", a.Name)
		}
		vi := a.ValueIndex(v)
		if vi < 0 {
			return 0, fmt.Errorf("core: unknown value %q for attribute %q", v, a.Name)
		}
		idxs[i] = vi
	}
	return s.Index(idxs...)
}

// IndexOfValues encodes one value name per attribute, in attribute
// order, into a group index — the allocation-free positional counterpart
// of IndexByValues for hot observation paths ("F", "B" instead of
// {"gender": "F", "race": "B"}).
func (s *Space) IndexOfValues(values ...string) (int, error) {
	if len(values) != len(s.attrs) {
		return 0, fmt.Errorf("core: IndexOfValues got %d values for %d attributes", len(values), len(s.attrs))
	}
	idx := 0
	for i, v := range values {
		vi := s.attrs[i].ValueIndex(v)
		if vi < 0 {
			return 0, fmt.Errorf("core: unknown value %q for attribute %q", v, s.attrs[i].Name)
		}
		idx += vi * s.strides[i]
	}
	return idx, nil
}

// Subset returns the space D = S_a × … × S_k over the named attributes,
// in the given order, together with the positions those attributes occupy
// in the receiver. It errors if a name is unknown or repeated.
func (s *Space) Subset(names ...string) (*Space, []int, error) {
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("core: Subset needs at least one attribute")
	}
	attrs := make([]Attr, 0, len(names))
	positions := make([]int, 0, len(names))
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			return nil, nil, fmt.Errorf("core: duplicate attribute %q in subset", n)
		}
		seen[n] = true
		pos, ok := s.AttrIndex(n)
		if !ok {
			return nil, nil, fmt.Errorf("core: unknown attribute %q", n)
		}
		attrs = append(attrs, s.attrs[pos])
		positions = append(positions, pos)
	}
	sub, err := NewSpace(attrs...)
	if err != nil {
		return nil, nil, err
	}
	return sub, positions, nil
}

// Project maps a group index of the receiver to the group index of the
// subset space identified by positions (as returned by Subset).
func (s *Space) Project(group int, sub *Space, positions []int) int {
	full := s.Decode(group)
	vals := make([]int, len(positions))
	for i, p := range positions {
		vals[i] = full[p]
	}
	return sub.MustIndex(vals...)
}

// DropStride returns the index arithmetic for removing the attribute at
// position pos: a group index g of the receiver maps to group
// (g/div)*stride + g%stride of the space over the remaining attributes
// (in their original order). It is the delta-aware counterpart of
// Marginalize: an incremental maintainer can fold a single changed cell
// down the subset lattice with two integer divisions instead of
// re-aggregating a whole table, and the mapping agrees with
// Project/Marginalize because both enumerate groups in row-major order
// with the last attribute varying fastest.
func (s *Space) DropStride(pos int) (div, stride int) {
	stride = s.strides[pos]
	div = stride * len(s.attrs[pos].Values)
	return div, stride
}

// SubsetNames enumerates every nonempty subset of the attribute names, in
// order of increasing size and then lexicographically, matching the layout
// of the paper's Table 2. The full set is included last.
func (s *Space) SubsetNames() [][]string {
	names := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		names[i] = a.Name
	}
	var out [][]string
	n := len(names)
	for mask := 1; mask < 1<<n; mask++ {
		var subset []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, names[i])
			}
		}
		out = append(out, subset)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
}

// SubsetPlan is the attribute-subset lattice of a space, the one plan
// both subset-ladder walks follow: the snapshot walk (MetricSubsetsCounts)
// and the streaming monitors' incremental ladders. Every nonempty proper
// subset derives its marginal from its parent, the subset plus its
// lowest missing attribute, by dropping that one attribute, so each
// subset costs one projection of its parent's table instead of an
// aggregation of the full table.
type SubsetPlan struct {
	// Names lists every nonempty attribute subset in Space.SubsetNames
	// order, the full set last.
	Names [][]string
	// Masks[i] is the mask of Names[i]: bit j is set when attribute j
	// of the space is in the subset.
	Masks []int
	// Full is the mask of the full attribute set.
	Full int
	// Nodes lists the nonempty proper subsets by decreasing size, and by
	// increasing mask within a size, so every node's parent is the full
	// set or an earlier node.
	Nodes []SubsetNode
}

// SubsetNode is one nonempty proper subset of a SubsetPlan.
type SubsetNode struct {
	// Mask is the subset's attribute mask and Parent its parent's: the
	// subset plus its lowest missing attribute.
	Mask, Parent int
	// Space is the marginal space over the subset's attributes, in the
	// space's order.
	Space *Space
	// Div and Stride are the parent space's DropStride pair for the
	// dropped attribute; Project applies them.
	Div, Stride int
}

// Project maps a group of the node's parent space to the group of the
// node's space that it aggregates into.
func (n *SubsetNode) Project(parentGroup int) int {
	return parentGroup/n.Div*n.Stride + parentGroup%n.Stride
}

// NewSubsetPlan builds the subset lattice of s.
func NewSubsetPlan(s *Space) (*SubsetPlan, error) {
	p := len(s.attrs)
	full := 1<<p - 1
	plan := &SubsetPlan{Names: s.SubsetNames(), Full: full}
	plan.Masks = make([]int, len(plan.Names))
	names := make([][]string, full+1)
	for i, subset := range plan.Names {
		mask := 0
		for _, n := range subset {
			j, _ := s.AttrIndex(n)
			mask |= 1 << j
		}
		plan.Masks[i] = mask
		names[mask] = subset
	}
	spaces := make([]*Space, full+1)
	spaces[full] = s
	plan.Nodes = make([]SubsetNode, 0, full-1)
	for size := p - 1; size >= 1; size-- {
		for mask := 1; mask < full; mask++ {
			if bits.OnesCount(uint(mask)) != size {
				continue
			}
			missing := full &^ mask
			drop := missing & -missing
			parent := mask | drop
			sub, _, err := s.Subset(names[mask]...)
			if err != nil {
				return nil, err
			}
			spaces[mask] = sub
			div, stride := spaces[parent].DropStride(bits.OnesCount(uint(parent & (drop - 1))))
			plan.Nodes = append(plan.Nodes, SubsetNode{Mask: mask, Parent: parent, Space: sub, Div: div, Stride: stride})
		}
	}
	return plan, nil
}
