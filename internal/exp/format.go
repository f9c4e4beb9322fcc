package exp

import (
	"fmt"
	"slices"
	"strings"

	"hybrids/internal/sim/trace"
)

// renderTable writes header and rows as an aligned text table.
func renderTable(b *strings.Builder, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

// attrTable assembles the per-operation latency-attribution table from the
// result's cells measured with attribution enabled: one row per cell, mean
// cycles per operation in each attribution bucket plus the total. Rows is
// empty when no cell carries attribution.
func (r Result) attrTable() (header []string, rows [][]string) {
	hasLabel := slices.ContainsFunc(r.Cells, func(c Cell) bool { return c.Attr != nil && c.Label != "" })
	header = []string{"variant"}
	if hasLabel {
		header = append(header, "label")
	}
	header = append(header, "threads")
	for b := trace.Bucket(0); b < trace.NumBuckets; b++ {
		header = append(header, b.String())
	}
	header = append(header, "total/op")
	for _, c := range r.Cells {
		if c.Attr == nil {
			continue
		}
		row := []string{c.Variant}
		if hasLabel {
			row = append(row, c.Label)
		}
		row = append(row, fmt.Sprint(c.Threads))
		for b := trace.Bucket(0); b < trace.NumBuckets; b++ {
			row = append(row, fmt.Sprintf("%.1f", c.Attr.PerOp(b)))
		}
		row = append(row, fmt.Sprintf("%.1f", float64(c.Attr.Total)/float64(c.Attr.Samples)))
		rows = append(rows, row)
	}
	return header, rows
}

// attrCaption explains the attribution table's unit once per result.
const attrCaption = "per-operation latency attribution (mean cycles between completions, per bucket)"

// Format renders the result as an aligned text table with notes; cells
// measured with attribution enabled add an attribution table after the
// main one.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	renderTable(&b, r.Header, r.Rows)
	if header, rows := r.attrTable(); len(rows) > 0 {
		fmt.Fprintf(&b, "-- %s --\n", attrCaption)
		renderTable(&b, header, rows)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the result as a GitHub-flavoured markdown table
// (used to generate EXPERIMENTS.md); attribution-measured cells add a
// second table.
func (r Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", r.Title)
	table := func(header []string, rows [][]string) {
		b.WriteString("| " + strings.Join(header, " | ") + " |\n")
		b.WriteString("|" + strings.Repeat("---|", len(header)) + "\n")
		for _, row := range rows {
			b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
	}
	table(r.Header, r.Rows)
	if header, rows := r.attrTable(); len(rows) > 0 {
		fmt.Fprintf(&b, "\n**%s**\n\n", attrCaption)
		table(header, rows)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteString("\n")
	return b.String()
}
