// Command hybrids runs the HybriDS reproduction experiments: one per table
// and figure in the paper's evaluation section, plus ablations.
//
// Usage:
//
//	hybrids -list
//	hybrids -exp fig5a [-scale quick|small|paper|tiny] [-parallel N] [-markdown|-json]
//	hybrids -exp fig5a -attr -trace trace.json
//	hybrids -exp all
//
// -parallel N measures up to N grid cells of an experiment concurrently
// (default GOMAXPROCS). Every cell simulates on a private machine, so the
// results are bit-identical at any setting; only wall-clock time changes.
//
// -attr prints a per-operation latency-attribution table next to each
// throughput table (cycles split into host-cache / coherence / DRAM /
// offload-wait / NMP-serialization / host-compute buckets; the sums also
// appear in -json cells). -trace FILE captures a cycle-level event trace
// of the first measured cell as Chrome trace_event JSON, viewable in
// Perfetto (https://ui.perfetto.dev). Both are observationally
// transparent: they never change measured results. See
// docs/OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"hybrids/internal/exp"
)

// checkFlags refuses a negative -parallel, naming the flag; -parallel 0
// measures serially.
func checkFlags(parallel int) error {
	if parallel < 0 {
		return fmt.Errorf("-parallel %d must be >= 0 (0 measures serially)", parallel)
	}
	return nil
}

func main() {
	var (
		expID    = flag.String("exp", "", "experiment id (or 'all')")
		scale    = flag.String("scale", "small", "scale: quick, tiny, small, or paper")
		list     = flag.Bool("list", false, "list experiments")
		markdown = flag.Bool("markdown", false, "emit markdown tables")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON (per-cell metrics)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "grid cells to measure concurrently (results are identical at any setting)")
		quiet    = flag.Bool("q", false, "suppress progress output")
		attr     = flag.Bool("attr", false, "print per-operation latency attribution tables (buckets also land in -json cells)")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON capture of the first measured cell to this file (open in Perfetto)")
	)
	flag.Parse()
	if err := checkFlags(*parallel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	registry := exp.Registry()
	if *list {
		for _, e := range registry {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}
	if *expID == "" {
		flag.Usage()
		os.Exit(2)
	}

	var sc exp.Scale
	switch *scale {
	case "quick":
		sc = exp.QuickScale()
	case "tiny":
		sc = exp.TinyScale()
	case "small":
		sc = exp.SmallScale()
	case "paper":
		sc = exp.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *parallel > 0 {
		sc.Parallel = *parallel
	}
	sc.Attr = *attr
	if *traceOut != "" {
		sc.Trace = &exp.TraceSpec{Path: *traceOut}
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}

	var results []exp.Result
	run := func(e exp.Experiment) {
		fmt.Fprintf(os.Stderr, "running %s...\n", e.ID)
		res := e.Run(sc, progress)
		switch {
		case *jsonOut:
			results = append(results, res)
		case *markdown:
			fmt.Print(res.Markdown())
		default:
			fmt.Println(res.Format())
		}
	}

	if *expID == "all" {
		for _, e := range registry {
			run(e)
		}
	} else {
		e, ok := exp.Find(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *expID)
			os.Exit(2)
		}
		run(e)
	}

	if err := sc.Trace.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	} else if sc.Trace != nil {
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := struct {
			Scale   string       `json:"scale"`
			Results []exp.Result `json:"results"`
		}{sc.Name, results}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
	}
}
