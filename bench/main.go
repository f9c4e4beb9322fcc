// Command bench is the repository's one repeatable benchmark: five named
// workloads (two served over loopback TCP, two embedded on core.Hybrid, one
// on the cycle-level simulator), each measured from outside through the
// layers' public functions, with an outside-in ladder of per-layer rungs in
// the traced run. See README.md in this directory for what each metric is
// for and the noise behaviour every rule here answers.
//
// Build once, never time `go run`:
//
//	go build -o bench/out/hybridsbench ./bench
//	bench/out/hybridsbench                       # all five workloads, one child process each
//	bench/out/hybridsbench -workload served-read -seed 7 -seconds 10 -trace 0
//	bench/out/hybridsbench -workload served-read -trace 1   # per-layer run
//	bench/out/hybridsbench compare A.jsonl B.jsonl
//	bench/out/hybridsbench selfcheck -runs 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the process exits non-zero when
// an output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procStart approximates process start: package initialisation runs
// before main, microseconds after exec. setup_s is measured from here, so
// it covers what a user pays to get a ready system and excludes
// compilation and exec.
var procStart = time.Now()

// provenance identifies what produced a result.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
}

// readProvenance reports the commit the binary was built from (stamped by
// `go build` inside a git checkout; "unknown" outside one).
func readProvenance() provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// report is one run of one workload.
type report struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Seconds    int        `json:"seconds"`
	Trace      bool       `json:"trace"`
	Segments   int        `json:"segments"`
	Provenance provenance `json:"provenance"`
	Correct    bool       `json:"correct"`
	Attempted  int64      `json:"attempted"`
	Failed     int64      `json:"failed"`
	// Failures holds the first few oracle contradictions, for diagnosis.
	Failures []string          `json:"failures,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
}

func (r *report) set(name string, m metric) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = m
}

// notef keeps the first few failure descriptions for diagnosis.
func (r *report) notef(format string, args ...any) {
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// failf counts and describes one failure that is not tied to a single
// operation (a final-state or counter mismatch).
func (r *report) failf(format string, args ...any) {
	r.Failed++
	r.notef(format, args...)
}

// options are one run's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// shrink divides record and operation counts (tests run a 1/100-size
	// smoke); 1 is the benchmark proper. It is not a flag, so a result
	// file never holds a shrunk run.
	shrink int
	// self is the binary to re-execute for the extra set-up samples; empty
	// (tests) leaves setup_s at the process's own set-up alone.
	self string
	// out, when set, receives the full report appended as one JSON line.
	out string
	// outDir receives the traced run's trace_event files.
	outDir string
}

func main() {
	// Two load goroutines, one listener and a handful of combiners share
	// the sandbox's two cores; pinning keeps a larger host from changing
	// the contention the numbers were sized for.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "selfcheck":
			os.Exit(selfcheckMain(os.Args[2:], os.Stdout))
		case "spec":
			os.Exit(specMain(os.Stdout))
		}
	}
	var o options
	traceFlag := 0
	setupOnly := false
	flag.StringVar(&o.workload, "workload", "all", "workload to run: served-read, served-scan, embedded-read, embedded-mix, sim-grid, or all (one child process each)")
	flag.Uint64Var(&o.seed, "seed", 42, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds; fixes the number of fixed-work timed segments")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&o.out, "out", "", "append the full report (provenance, per-segment values) as one JSON line to this file")
	flag.StringVar(&o.outDir, "outdir", filepath.Join("bench", "out"), "directory for the traced run's Chrome trace_event files")
	flag.BoolVar(&setupOnly, "setup-only", false, "set the workload up once, print the seconds since process start and exit (a run calls this for its extra setup_s samples)")
	flag.Parse()
	o.trace = traceFlag != 0
	o.shrink = 1
	if flag.NArg() > 0 || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if self, err := os.Executable(); err == nil {
		o.self = self
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if setupOnly {
		os.Exit(setupOnlyMain(os.Stdout, w, o))
	}
	rep := run(w, o)
	// Failures go out first: a run that failed early has no metrics for
	// emit to print.
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.Name, f)
	}
	if err := emit(os.Stdout, w, rep, o); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one workload in this process.
func run(w workloadDef, o options) *report {
	rep := &report{
		Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Provenance: readProvenance(),
	}
	if w.Kind == kSim {
		runSim(rep, o)
	} else {
		runNative(rep, w, o)
	}
	rep.Correct = rep.Failed == 0
	if !o.trace {
		rep.set("error_rate", metric{Value: float64(rep.Failed) / float64(max(rep.Attempted, 1)), Unit: "ratio", Samples: int(rep.Attempted)})
	}
	return rep
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// setupOnlyMain is `-setup-only`: one set-up of w from process start, its
// duration in seconds on standard output.
func setupOnlyMain(out io.Writer, w workloadDef, o options) int {
	var err error
	if w.Kind == kSim {
		err = setUpSim(o)
	} else {
		var sys *system
		if sys, err = setUp(nativeSpecs[w.Name], o, nativeSegments(o.seconds), nil); err == nil {
			defer sys.tearDown()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: set-up: %v\n", w.Name, err)
		return 1
	}
	fmt.Fprintf(out, "%.9f\n", time.Since(procStart).Seconds())
	return 0
}

// setupSamples returns the setup_s samples of a run: first, the run's own
// set-up, then the same set-up timed in fresh processes (`-setup-only`),
// because a repeat inside this process would find a grown, warm heap and
// time something no user pays. The children run after the measurement and
// add nothing to this process's VmHWM.
func setupSamples(o options, first float64) ([]float64, error) {
	samples := []float64{first}
	for i := 1; i < setupRepeats && o.self != ""; i++ {
		out, err := exec.Command(o.self, "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-setup-only").Output()
		if err != nil {
			return samples, fmt.Errorf("set-up sample %d: %w", i, err)
		}
		secs, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return samples, fmt.Errorf("set-up sample %d: %w", i, err)
		}
		samples = append(samples, secs)
	}
	return samples, nil
}

// runAll runs every workload in its own child process (fresh heap, its
// own VmHWM) and relays the output. It returns the exit code.
func runAll(o options) int {
	code := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.Name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-outdir", o.outDir,
		}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// declared returns the metric table of the run mode.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// driverDeclared returns the metrics of the run mode that BENCHMARK.json
// names, which are the keys of the result line.
func driverDeclared(trace bool) []metricDef {
	var defs []metricDef
	for _, d := range declared(trace) {
		if trace || d.Bound != exactBound {
			defs = append(defs, d)
		}
	}
	return defs
}

// emit prints every metric by name with its unit, appends the full report
// to o.out, and ends with the driver's one-line JSON result. A metric the
// workload's kind declares but the run did not produce, or one it
// produced without a declaration, is a benchmark bug and an error.
func emit(w io.Writer, wd workloadDef, rep *report, o options) error {
	defs := declared(rep.Trace)
	known := map[string]metricDef{}
	for _, d := range defs {
		known[d.Name] = d
		_, have := rep.Metrics[d.Name]
		if on := d.On&wd.Kind != 0; on != have {
			return fmt.Errorf("%s: metric %s declared=%v reported=%v", wd.Name, d.Name, on, have)
		}
	}
	names := make([]string, 0, len(rep.Metrics))
	for name, m := range rep.Metrics {
		d, ok := known[name]
		if !ok || d.Unit != m.Unit {
			return fmt.Errorf("%s: metric %s (%s) is not declared with that unit", wd.Name, name, m.Unit)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	p := rep.Provenance
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%v segments=%d commit=%s dirty=%v %s gomaxprocs=%d nproc=%d\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Segments, p.Commit, p.Dirty, p.GoVersion, p.GOMAXPROCS, p.NProc)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s", rep.Workload, name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		if len(m.Segments) > 0 {
			fmt.Fprintf(w, " segments=%.6g", m.Segments)
		}
		fmt.Fprintln(w)
	}

	if o.out != "" {
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(o.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_, err = f.Write(append(line, '\n'))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	// The driver's line: every key BENCHMARK.json declares for the mode,
	// off-path layers as 0 (see metricDef.On).
	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]outMetric{}}
	for _, d := range driverDeclared(rep.Trace) {
		final.Metrics[d.Name] = outMetric{rep.Metrics[d.Name].Value, d.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
