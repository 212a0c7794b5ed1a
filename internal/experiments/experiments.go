// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations in extras.go. Each experiment
// returns a structured result embedding the paper's reported numbers
// next to the measured ones, and renders itself as an aligned text
// table. cmd/dfexperiments drives them all; the root bench_test.go wraps
// each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// renderTable lays out rows with tabwriter; header and rows are cell
// lists.
func renderTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, row := range rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
