package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// report is one run's output: a table row per workload for the text and
// markdown forms, and a cell per workload for the JSON form.
type report struct {
	ID    string            `json:"id"`
	Title string            `json:"title"`
	Notes []string          `json:"notes"`
	Cells []cell            `json:"cells"`
	Meta  map[string]string `json:"meta"`

	header []string
	rows   [][]string
}

// cell is one workload's measured phase.
type cell struct {
	Variant    string  `json:"variant"` // closed-loop or open-loop
	Label      string  `json:"label"`   // ycsb-<workload letter>
	Threads    int     `json:"threads"` // connections
	Ops        int     `json:"ops"`     // measured operations, all connections
	MOpsPerSec float64 `json:"throughput_mops"`
	WallNanos  uint64  `json:"wall_ns"` // measured-phase wall-clock duration
	// Metrics carries the load/* tallies and, with -scrape, the scraped
	// server/* counter deltas (docs/METRICS.md).
	Metrics map[string]uint64 `json:"metrics"`
}

// write renders r to w as indented JSON, as a markdown table, or as an
// aligned text table; the two tables are followed by the notes.
func (r *report) write(w io.Writer, jsonOut, markdown bool) error {
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	var b strings.Builder
	if markdown {
		fmt.Fprintf(&b, "### %s\n\n| %s |\n|%s\n", r.Title, strings.Join(r.header, " | "), strings.Repeat("---|", len(r.header)))
		for _, row := range r.rows {
			fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
		}
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "\n*%s*\n", n)
		}
		b.WriteString("\n")
	} else {
		fmt.Fprintf(&b, "== %s ==\n", r.Title)
		tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
		for _, row := range append([][]string{r.header}, r.rows...) {
			fmt.Fprintln(tw, strings.Join(row, "\t"))
		}
		tw.Flush()
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
