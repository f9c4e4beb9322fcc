package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// resultSet is the runs of one side of a comparison: workload → metric →
// one value per run, in file order.
type resultSet map[string]map[string][]float64

// loadResults reads a result set: a file of JSON lines as written by
// -out, one report per line.
func loadResults(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rep.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d was not correct; its numbers mean nothing", path, line, rep.Workload, rep.Seed)
		}
		if set[rep.Workload] == nil {
			set[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			set[rep.Workload][name] = append(set[rep.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// Verdicts of one workload × metric pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictNoBound    = "-"
)

// judge compares side b against side a for one metric. worse is b's
// median relative to a's in the metric's worse direction (positive = b is
// worse). With symmetric set, a difference in either direction beyond the
// bound fails: the two sides are the same code, so any such difference is
// noise the bound does not cover. An exact metric's medians must not differ
// at all in the worse direction (in either, with symmetric), which holds
// two sides to the same seeds.
func judge(d metricDef, a, b []float64, symmetric bool) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
	}
	if d.Bound == 0 {
		return worse, verdictNoBound
	}
	if d.Bound == exactBound {
		// No tolerance, and no division: error_rate's median is 0.
		diff := mb - ma
		if d.Better == "higher" {
			diff = -diff
		}
		if diff > 0 || (symmetric && diff != 0) {
			return worse, verdictRegressed
		}
		return worse, verdictOK
	}
	if worse > d.Bound || (symmetric && -worse > d.Bound) {
		return worse, verdictRegressed
	}
	// Where the run-to-run spread is wider than the bound the medians
	// cannot resolve a regression of that size: unresolved, unless every
	// run of b reads better than every run of a.
	if spread(a) > d.Bound || spread(b) > d.Bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if d.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return worse, verdictUnresolved
		}
	}
	return worse, verdictOK
}

// compareSets prints, per workload × metric present on both sides, each
// side's median and quartiles, the relative difference and the verdict. It
// returns the number of regressions.
func compareSets(w io.Writer, a, b resultSet, symmetric bool) int {
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		defs[d.Name] = d
	}
	regressions := 0
	fmt.Fprintf(w, "%-14s %-34s %12s %12s %12s  %12s %12s %12s  %8s %7s  %s\n",
		"workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "B worse", "bound", "verdict")
	for _, wd := range workloads {
		names := make([]string, 0, len(a[wd.Name]))
		for name := range a[wd.Name] {
			if _, ok := b[wd.Name][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := a[wd.Name][name], b[wd.Name][name]
			d, ok := defs[name]
			if !ok {
				d = metricDef{Name: name, Better: "lower"}
			}
			worse, verdict := judge(d, va, vb, symmetric)
			if verdict == verdictRegressed {
				regressions++
			}
			aq1, aq3 := quartiles(va)
			bq1, bq3 := quartiles(vb)
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.2f", d.Bound)
			} else if d.Bound == exactBound {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-14s %-34s %12.6g %12.6g %12.6g  %12.6g %12.6g %12.6g  %+7.1f%% %7s  %s (n=%d,%d)\n",
				wd.Name, name, median(va), aq1, aq3, median(vb), bq1, bq3, worse*100, bound, verdict, len(va), len(vb))
		}
	}
	return regressions
}

// compareMain is `bench compare A B`.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: hybridsbench compare A.jsonl B.jsonl   (files written with -out; B is judged against A)")
		return 2
	}
	a, b, err := loadPair(args[0], args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	if n := compareSets(w, a, b, false); n > 0 {
		fmt.Fprintf(w, "%d metric(s) regressed beyond their bound\n", n)
		return 1
	}
	return 0
}

// loadPair reads both sides of a comparison.
func loadPair(pathA, pathB string) (a, b resultSet, err error) {
	if a, err = loadResults(pathA); err != nil {
		return nil, nil, err
	}
	b, err = loadResults(pathB)
	return a, b, err
}

// selfcheckMain is `bench selfcheck`: two alternating sets of runs of this
// same binary, failing if any end-to-end median differs between the sets
// by more than its bound — the check the driver makes before it trusts
// the benchmark.
func selfcheckMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	runs := fs.Int("runs", 5, "runs per set and workload")
	seed := fs.Uint64("seed", 1, "first seed; run i of both sets uses seed+i")
	dir := fs.String("dir", filepath.Join("bench", "out"), "directory for the two result files")
	fs.Parse(args)

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench selfcheck: %v\n", err)
		return 2
	}
	files := [2]string{filepath.Join(*dir, "selfcheck-A.jsonl"), filepath.Join(*dir, "selfcheck-B.jsonl")}
	for _, f := range files {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "bench selfcheck: %v\n", err)
			return 2
		}
	}
	for i := 0; i < *runs; i++ {
		for _, wd := range workloads {
			// Alternate which set goes first so slow drift of the host
			// lands on both.
			for k := 0; k < 2; k++ {
				side := (i + k) % 2
				cmd := exec.Command(os.Args[0], "-workload", wd.Name, "-seed", fmt.Sprint(*seed+uint64(i)),
					"-out", files[side])
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "bench selfcheck: %s run %d: %v\n", wd.Name, i, err)
					return 1
				}
				fmt.Fprintf(w, "# %s run %d set %c done\n", wd.Name, i, 'A'+rune(side))
			}
		}
	}
	a, b, err := loadPair(files[0], files[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench selfcheck: %v\n", err)
		return 2
	}
	if n := compareSets(w, a, b, true); n > 0 {
		fmt.Fprintf(w, "selfcheck FAILED: %d end-to-end median(s) of identical code differ by more than their bound\n", n)
		return 1
	}
	fmt.Fprintln(w, "selfcheck ok: every end-to-end median of the two sets agrees within its bound")
	return 0
}
