// Package experiments regenerates every figure of the paper's
// evaluation (Section VI) on the synthetic stream. Run replays the seed
// stream once through Full Index — the ground truth — and the variants
// the requested figures read, and returns each figure as text tables
// whose rows are the series the paper plots; Fig. 10 replays its own
// scripted stream, and Fig13Sweep is the long-stream stage-time sweep.
// cmd/provbench renders the figures and bench_test.go reports them as
// testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: the rows behind one figure.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries the comparison against the paper's reported shape;
	// EXPERIMENTS.md quotes it in the figure's section.
	Notes string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render draws the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}
