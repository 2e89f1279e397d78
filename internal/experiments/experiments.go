// Package experiments contains the runnable harnesses behind every table
// and claim-backed experiment in EXPERIMENTS.md: the paper's three tables
// (E1–E3) and the quantitative extensions X1–X20 that measure the §3
// qualitative claims on this repository's implementations. Each
// experiment is one descriptor (descriptor.go) and is deterministic given
// its seed; cmd/feudalism drives them, and `feudalism bench` runs them
// all into one machine-readable file.
package experiments

import (
	"fmt"
	"strings"
)

// Table renders rows of columns as an aligned text table with a header —
// the common output format of every experiment.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row; values are stringified with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
