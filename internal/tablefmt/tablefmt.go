// Package tablefmt renders plain-text tables for the benchmark harness.
// The experiment drivers print the same rows and series the paper's tables
// and figures report; this package keeps that output aligned and stable so
// EXPERIMENTS.md can quote it verbatim.
package tablefmt

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and writes an aligned text rendering.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// New returns a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// formatFloat renders floats compactly: scientific for very small non-zero
// magnitudes (JER values can reach 1e-10 on Twitter data), fixed otherwise.
func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av < 1e-4:
		return fmt.Sprintf("%.3e", v)
	case av >= 1e6:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the table to w. It is a single-shot renderer;
// errors from the underlying writer are returned.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.headers {
		if len(h) > widths[i] {
			widths[i] = len(h)
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	if len(t.headers) > 0 {
		writeRow(&b, t.headers, widths)
		sep := make([]string, cols)
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(&b, sep, widths)
	}
	for _, r := range t.rows {
		writeRow(&b, r, widths)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeRow(b *strings.Builder, cells []string, widths []int) {
	for i, c := range cells {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(c)
		if pad := widths[i] - len(c); pad > 0 && i < len(widths)-1 {
			b.WriteString(strings.Repeat(" ", pad))
		}
	}
	b.WriteByte('\n')
}
