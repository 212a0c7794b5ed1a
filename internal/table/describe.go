package table

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
)

// ColumnSummary describes one column for quick data inspection.
type ColumnSummary struct {
	Name string
	Kind Kind
	// Numeric statistics (Int/Float columns).
	Min, Max, Mean, Std float64
	// Categorical statistics.
	Levels  int
	TopName string
	TopFrac float64
}

// Describe summarizes every column: range/mean/std for numeric columns,
// level count and modal value for categorical columns.
func (f *Frame) Describe() []ColumnSummary {
	out := make([]ColumnSummary, 0, len(f.cols))
	for _, c := range f.cols {
		s := ColumnSummary{Name: c.Name, Kind: c.Kind}
		switch c.Kind {
		case Categorical:
			s.Levels = len(c.levels)
			counts := make([]int, len(c.levels))
			for _, code := range c.codes {
				counts[code]++
			}
			best := -1
			for code, n := range counts {
				if best < 0 || n > counts[best] {
					best = code
				}
			}
			if best >= 0 && len(c.codes) > 0 {
				s.TopName = c.levels[best]
				s.TopFrac = float64(counts[best]) / float64(len(c.codes))
			}
		default:
			n := c.Len()
			if n == 0 {
				break
			}
			s.Min, s.Max = math.Inf(1), math.Inf(-1)
			var sum, sumSq float64
			for i := 0; i < n; i++ {
				v := c.FloatAt(i)
				s.Min = math.Min(s.Min, v)
				s.Max = math.Max(s.Max, v)
				sum += v
				sumSq += v * v
			}
			s.Mean = sum / float64(n)
			if variance := sumSq/float64(n) - s.Mean*s.Mean; variance > 0 {
				s.Std = math.Sqrt(variance)
			}
		}
		out = append(out, s)
	}
	return out
}

// DescribeString renders the summary as an aligned table.
func (f *Frame) DescribeString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d rows x %d columns\n", f.NumRows(), f.NumCols())
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "column\tkind\tsummary")
	for _, s := range f.Describe() {
		var detail string
		if s.Kind == Categorical {
			detail = fmt.Sprintf("%d levels, mode %q (%.1f%%)", s.Levels, s.TopName, 100*s.TopFrac)
		} else {
			detail = fmt.Sprintf("min %g, max %g, mean %.4g, std %.4g", s.Min, s.Max, s.Mean, s.Std)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\n", s.Name, s.Kind, detail)
	}
	w.Flush()
	return b.String()
}
