package exp

import (
	"fmt"
	"io"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/sim/memsys"
	"hybrids/internal/ycsb"
)

// Result is one reproduced table or figure. Cells carries the measured
// grid points in deterministic (row) order for machine-readable emission;
// table-style experiments with no measured cells leave it empty.
type Result struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"-"`
	Rows   [][]string `json:"-"`
	Notes  []string   `json:"notes,omitempty"`
	Cells  []Cell     `json:"cells,omitempty"`
}

// Experiment is a runnable reproduction target.
type Experiment struct {
	ID    string
	Title string
	Run   func(sc Scale, progress io.Writer) Result
}

// Registry returns every experiment in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Table 1: evaluation framework configuration", runTable1},
		{"fig5a", "Figure 5a: skiplist throughput, YCSB-C", runFig5a},
		{"fig5b", "Figure 5b: skiplist DRAM reads per operation, YCSB-C", runFig5b},
		{"fig6a", "Figure 6a: B+ tree throughput, YCSB-C", runFig6a},
		{"fig6b", "Figure 6b: B+ tree DRAM reads per operation, YCSB-C", runFig6b},
		{"table2", "Table 2: NMP operation offloading delays", runTable2},
		{"fig7", "Figure 7: skiplist sensitivity to concurrent modifications", runFig7},
		{"fig8", "Figure 8: B+ tree sensitivity to concurrent modifications", runFig8},
		{"fig9", "Figure 9: B+ tree memory reads per op across mixes", runFig9},
		{"ablate-window", "Ablation: non-blocking window depth (§3.5)", runAblateWindow},
		{"ablate-skew", "Ablation: workload skew (the paper's §7 limitation)", runAblateSkew},
		{"ablate-split", "Ablation: skiplist host-NMP split level (§3.3)", runAblateSplit},
		{"ablate-mmio", "Ablation: NMP offload (MMIO) latency sensitivity (§3.2)", runAblateMMIO},
		{"ablate-partitions", "Ablation: NMP partition count (§3.2)", runAblatePartitions},
		{"engine-bskiplist", "Third engine: cache-conscious B-skiplist hybrid, YCSB-C (registry grid)", runEngineBSkiplist},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func progressf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// --- Table 1 -------------------------------------------------------------

func runTable1(sc Scale, _ io.Writer) Result {
	mc := sc.Machine.Mem
	rows := [][]string{
		{"host cores", fmt.Sprintf("%d out-of-order-equivalent @ 2GHz, 1 thread/core", mc.HostCores)},
		{"L1 dcache", fmt.Sprintf("%dKB private, %d-way LRU, %d-cycle, %dB blocks", mc.L1Size>>10, memsys.L1Ways, memsys.L1Latency, memsys.BlockSize)},
		{"L2 cache", fmt.Sprintf("%dKB shared, %d-way LRU, %d-cycle, %dB blocks", mc.L2Size>>10, memsys.L2Ways, memsys.L2Latency, memsys.BlockSize)},
		{"memory", fmt.Sprintf("%dMB host + %dMB NMP, %d+%d vaults, %d banks/vault", mc.HostMemSize>>20, mc.NMPMemSize>>20, memsys.HostVaults, mc.NMPVaults, memsys.VaultBanks)},
		{"DRAM timing", fmt.Sprintf("tRP=%d tRCD=%d tCL=%d tBURST=%d cycles", memsys.TRP, memsys.TRCD, memsys.TCL, memsys.TBURST)},
		{"NMP cores", fmt.Sprintf("%d in-order single-cycle @ 2GHz, one %dB node buffer", mc.NMPVaults, memsys.BlockSize)},
		{"scratchpad", fmt.Sprintf("%dKB per NMP core (publication lists host-mapped)", memsys.ScratchSize>>10)},
		{"offload path", fmt.Sprintf("MMIO write %d / read %d / +%d per extra word / host DRAM extra %d cycles", mc.MMIOWriteLatency, mc.MMIOReadLatency, memsys.MMIOWordExtra, memsys.HostDRAMExtra)},
	}
	return Result{ID: "table1", Title: "Table 1 (scale: " + sc.Name + ")", Header: []string{"component", "configuration"}, Rows: rows}
}

// --- The grid helper -------------------------------------------------------

// workload is one point of a grid's axis: the preloaded keys and the
// per-thread streams every variant sees there.
type workload struct {
	label   string // Cell.Label ("" on thread sweeps, whose axis is Cell.Threads)
	load    []ycsb.Pair
	streams [][]kv.Op
}

// threadSweep is cfg's workload at each thread count, over one shared load
// set. Load sets are handed out sorted (kv.SortedUnique), so the sort runs
// once per load set and every bulk build from it only checks the order.
func threadSweep(sc Scale, cfg ycsb.Config, threadCounts []int) []workload {
	gen := ycsb.New(cfg)
	load := kv.SortedUnique(gen.Load())
	var ws []workload
	for _, th := range threadCounts {
		ws = append(ws, workload{load: load, streams: gen.Streams(th, sc.WarmupPerThread+sc.OpsPerThread)})
	}
	return ws
}

// loadSets generates and sorts each distinct load set of a grid once. A
// ycsb load depends only on Records, KeyMax and Seed, so every mix of a
// sensitivity grid and every skew of ablate-skew preloads one slice.
type loadSets map[ycsb.Config][]ycsb.Pair

// onePoint is cfg's workload at the scale's single-point thread count.
func (ls loadSets) onePoint(sc Scale, label string, cfg ycsb.Config) workload {
	gen := ycsb.New(cfg)
	k := ycsb.Config{Records: cfg.Records, KeyMax: cfg.KeyMax, Seed: cfg.Seed}
	if ls[k] == nil {
		ls[k] = kv.SortedUnique(gen.Load())
	}
	return workload{label: label, load: ls[k], streams: gen.Streams(sc.MaxThreads, sc.WarmupPerThread+sc.OpsPerThread)}
}

// job is v measured on w at scale sc.
func (w workload) job(sc Scale, v *variant, progress, label string) cellJob {
	return cellJob{sc: sc, v: v, load: w.load, streams: w.streams, progress: progress, label: label}
}

// runGrid measures every variant on every workload. Cells are declared
// workload-major, so the traced cell is the first variant on the first
// workload, and returned per variant name in workload order.
func runGrid(sc Scale, progress io.Writer, tag string, variants []*variant, ws []workload) map[string][]Cell {
	var jobs []cellJob
	for _, w := range ws {
		at := tag
		if w.label != "" {
			at += " " + w.label
		}
		for _, v := range variants {
			jobs = append(jobs, w.job(sc, v, fmt.Sprintf("%s %s threads=%d", at, v.name, len(w.streams)), w.label))
		}
	}
	grid := map[string][]Cell{}
	for i, c := range runCells(sc, progress, jobs) {
		name := variants[i%len(variants)].name
		grid[name] = append(grid[name], c)
	}
	return grid
}

// --- Figures 5a/5b: skiplist baseline (YCSB-C) ---------------------------

func skiplistYCSBCGrid(sc Scale, threadCounts []int, progress io.Writer) map[string][]Cell {
	return runGrid(sc, progress, "fig5", skiplistVariants(sc),
		threadSweep(sc, ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed), threadCounts))
}

// sweepRows appends a thread-sweep grid's rows and cells, variant-major,
// each throughput also relative to the base variant's at the same count.
func (res *Result) sweepRows(sc Scale, grid map[string][]Cell, variants []*variant, base string) {
	for _, v := range variants {
		for i, th := range sc.ThreadCounts {
			c := grid[v.name][i]
			rel := c.MOpsPerSec / grid[base][i].MOpsPerSec
			res.Rows = append(res.Rows, []string{v.name, fmt.Sprint(th), f2(c.MOpsPerSec), f2(rel) + "x"})
			res.Cells = append(res.Cells, c)
		}
	}
}

// readsRows appends each variant's DRAM reads per op at a one-count grid
// and its ratio to the base variant's, with the cells.
func (res *Result) readsRows(grid map[string][]Cell, variants []*variant, base string) {
	for _, v := range variants {
		c := grid[v.name][0]
		res.Rows = append(res.Rows, []string{v.name, f2(c.ReadsPerOp), f2(c.ReadsPerOp / grid[base][0].ReadsPerOp)})
		res.Cells = append(res.Cells, c)
	}
}

func runFig5a(sc Scale, progress io.Writer) Result {
	grid := skiplistYCSBCGrid(sc, sc.ThreadCounts, progress)
	res := Result{
		ID: "fig5a", Title: "Figure 5a (skiplist, YCSB-C, scale " + sc.Name + ")",
		Header: []string{"implementation", "threads", "Mops/s", "vs lock-free@same"},
	}
	res.sweepRows(sc, grid, skiplistVariants(sc), "lock-free")
	top := len(sc.ThreadCounts) - 1
	res.Notes = append(res.Notes,
		fmt.Sprintf("paper (8 threads): hybrid-blocking +46%% over lock-free, +99%% over NMP-based; hybrid-nonblocking4 = 2.46x lock-free"),
		fmt.Sprintf("measured (%d threads): hybrid-blocking %.2fx lock-free, %.2fx NMP-based; hybrid-nonblocking%d %.2fx lock-free",
			sc.ThreadCounts[top],
			grid["hybrid-blocking"][top].MOpsPerSec/grid["lock-free"][top].MOpsPerSec,
			grid["hybrid-blocking"][top].MOpsPerSec/grid["NMP-based"][top].MOpsPerSec,
			sc.Window,
			grid[fmt.Sprintf("hybrid-nonblocking%d", sc.Window)][top].MOpsPerSec/grid["lock-free"][top].MOpsPerSec))
	return res
}

func runFig5b(sc Scale, progress io.Writer) Result {
	grid := skiplistYCSBCGrid(sc, []int{sc.MaxThreads}, progress)
	res := Result{
		ID: "fig5b", Title: "Figure 5b (skiplist DRAM reads/op, YCSB-C, scale " + sc.Name + ")",
		Header: []string{"implementation", "DRAM reads/op", "vs lock-free"},
	}
	res.readsRows(grid, skiplistVariants(sc), "lock-free")
	res.Notes = append(res.Notes, "paper: lock-free 36, hybrid 24 (2/3 of lock-free), NMP-based ~60 (hybrid = 40% of it)")
	return res
}

// --- Figures 6a/6b: B+ tree baseline (YCSB-C) ----------------------------

func btreeYCSBCGrid(sc Scale, threadCounts []int, progress io.Writer) map[string][]Cell {
	return runGrid(sc, progress, "fig6", btreeVariants(sc),
		threadSweep(sc, ycsb.YCSBC(sc.BTreeRecords, sc.KeyMax, sc.Seed), threadCounts))
}

func runFig6a(sc Scale, progress io.Writer) Result {
	grid := btreeYCSBCGrid(sc, sc.ThreadCounts, progress)
	res := Result{
		ID: "fig6a", Title: "Figure 6a (B+ tree, YCSB-C, scale " + sc.Name + ")",
		Header: []string{"implementation", "threads", "Mops/s", "vs host-only@same"},
	}
	res.sweepRows(sc, grid, btreeVariants(sc), "host-only")
	top := len(sc.ThreadCounts) - 1
	res.Notes = append(res.Notes,
		"paper (8 threads): hybrid-blocking +18% over host-only; hybrid-nonblocking4 = 2.11x host-only",
		fmt.Sprintf("measured (%d threads): hybrid-blocking %.2fx host-only; hybrid-nonblocking%d %.2fx host-only",
			sc.ThreadCounts[top],
			grid["hybrid-blocking"][top].MOpsPerSec/grid["host-only"][top].MOpsPerSec,
			sc.Window,
			grid[fmt.Sprintf("hybrid-nonblocking%d", sc.Window)][top].MOpsPerSec/grid["host-only"][top].MOpsPerSec))
	return res
}

func runFig6b(sc Scale, progress io.Writer) Result {
	grid := btreeYCSBCGrid(sc, []int{sc.MaxThreads}, progress)
	res := Result{
		ID: "fig6b", Title: "Figure 6b (B+ tree DRAM reads/op, YCSB-C, scale " + sc.Name + ")",
		Header: []string{"implementation", "DRAM reads/op", "vs host-only"},
	}
	res.readsRows(grid, btreeVariants(sc), "host-only")
	res.Notes = append(res.Notes, "paper: host-only ~9 reads/op, hybrid ~3 (the NMP levels)")
	return res
}

// --- Table 2: offload delay decomposition --------------------------------

func runTable2(sc Scale, progress io.Writer) Result {
	// Single-threaded blocking hybrid B+ tree, read-only: isolates the
	// offload path exactly as the paper measures it (same initial tree,
	// same host levels, one offload at a time).
	cell := runGrid(sc, progress, "table2", []*variant{engineHybrid("btree", sc, 1)},
		threadSweep(sc, ycsb.YCSBC(sc.BTreeRecords, sc.KeyMax, sc.Seed), []int{1}))["hybrid-blocking"][0]

	reqWrite, respRead, llcMiss := offloadCosts(sc.Machine.Mem)
	d := cell.Delays
	rows := [][]string{
		{"operation request write (host->scratchpad burst)", fmt.Sprint(reqWrite)},
		{"post -> combiner pickup (doorbell + scan)", fmt.Sprint(d.PostToScan / max(d.Count, 1))},
		{"NMP-side service (traversal + execution)", fmt.Sprint(d.Service / max(d.Count, 1))},
		{"completion -> host observes (poll)", fmt.Sprint(d.CompleteToObserve / max(d.ObserveCount, 1))},
		{"response read (host<-scratchpad burst)", fmt.Sprint(respRead)},
		{"reference: one LLC-miss DRAM access", fmt.Sprint(llcMiss)},
	}
	return Result{
		ID: "table2", Title: "Table 2 (offload delays in cycles, scale " + sc.Name + ")",
		Header: []string{"delay component", "cycles (mean)"},
		Rows:   rows,
		Cells:  []Cell{cell},
		Notes: []string{
			"paper: communication delays to and from the NMP core sum to ~1-2 LLC miss delays",
			fmt.Sprintf("measured: request+observe+response = %d cycles vs LLC miss %d cycles (%.2fx)",
				reqWrite+d.CompleteToObserve/max(d.ObserveCount, 1)+respRead, llcMiss,
				float64(reqWrite+d.CompleteToObserve/max(d.ObserveCount, 1)+respRead)/float64(llcMiss)),
		},
	}
}

// offloadCosts returns Table 2's rows that follow from the machine alone:
// the request burst (seven words), the response burst (three words) and
// one host LLC miss to a closed DRAM bank.
func offloadCosts(mc memsys.Config) (reqWrite, respRead, llcMiss uint64) {
	reqWrite = mc.MMIOWriteLatency + 6*memsys.MMIOWordExtra
	respRead = mc.MMIOReadLatency + 2*memsys.MMIOWordExtra
	llcMiss = memsys.L1Latency + memsys.L2Latency + memsys.HostDRAMExtra + memsys.TRCD + memsys.TCL + memsys.TBURST
	return reqWrite, respRead, llcMiss
}

// --- Figures 7-9: sensitivity analysis -----------------------------------

type mix struct {
	label                string
	read, insert, remove int
	fullyUniform         bool // B+ tree: uniform fresh inserts (no forced splits)
}

func sensitivityMixes() []mix {
	return []mix{
		{label: "100-0-0", read: 100},
		{label: "90-5-5", read: 90, insert: 5, remove: 5},
		{label: "70-15-15", read: 70, insert: 15, remove: 15},
		{label: "50-25-25", read: 50, insert: 25, remove: 25},
	}
}

// mixRows appends a sensitivity grid's rows and cells, mix-major: each
// row is the mix, the variant and what row makes of the cell.
func (res *Result) mixRows(grid map[string][]Cell, mixes []mix, variants []*variant, row func(Cell) []string) {
	for i, mx := range mixes {
		for _, v := range variants {
			c := grid[v.name][i]
			res.Rows = append(res.Rows, append([]string{mx.label, v.name}, row(c)...))
			res.Cells = append(res.Cells, c)
		}
	}
}

func runFig7(sc Scale, progress io.Writer) Result {
	res := Result{
		ID: "fig7", Title: "Figure 7 (skiplist sensitivity, 8 threads, normalized to lock-free 100-0-0, scale " + sc.Name + ")",
		Header: []string{"workload", "implementation", "Mops/s", "normalized"},
	}
	var ws []workload
	loads := loadSets{}
	for _, mx := range sensitivityMixes() {
		ws = append(ws, loads.onePoint(sc, mx.label, ycsb.Mix(sc.SkiplistRecords, sc.KeyMax, mx.read, mx.insert, mx.remove, sc.Seed)))
	}
	grid := runGrid(sc, progress, "fig7", skiplistVariants(sc), ws)
	base := grid["lock-free"][0].MOpsPerSec // 100-0-0 is the first mix
	res.mixRows(grid, sensitivityMixes(), skiplistVariants(sc), func(c Cell) []string {
		return []string{f2(c.MOpsPerSec), f2(c.MOpsPerSec / base)}
	})
	res.Notes = append(res.Notes,
		"paper: at 50-25-25, hybrid-blocking = 1.61x and hybrid-nonblocking4 = 3.12x lock-free;",
		"hybrids retain 90-93% of their read-only throughput vs lock-free's 80%")
	return res
}

func btreeMixConfig(sc Scale, mx mix) ycsb.Config {
	cfg := ycsb.Mix(sc.BTreeRecords, sc.KeyMax, mx.read, mx.insert, mx.remove, sc.Seed)
	if !mx.fullyUniform {
		// §5.2: inserts target the last leaf of each NMP partition to
		// force maximum node splits.
		cfg.Inserts = ycsb.PartitionTail
		cfg.Partitions = sc.Machine.Mem.NMPVaults
	}
	return cfg
}

func btreeSensitivityMixes() []mix {
	return append(sensitivityMixes(),
		mix{label: "50-25-25-uniform", read: 50, insert: 25, remove: 25, fullyUniform: true})
}

// btreeSensitivityMemo caches the shared fig8/fig9 grid so that "-exp all"
// measures it once. It is keyed on the whole Scale but Trace, which only
// claims a cell to capture.
var btreeSensitivityMemo = map[string]map[string][]Cell{}

func runBTreeSensitivity(sc Scale, progress io.Writer) map[string][]Cell {
	untraced := sc
	untraced.Trace = nil
	memoKey := fmt.Sprintf("%+v", untraced)
	if grid, ok := btreeSensitivityMemo[memoKey]; ok {
		return grid
	}
	var ws []workload
	loads := loadSets{}
	for _, mx := range btreeSensitivityMixes() {
		ws = append(ws, loads.onePoint(sc, mx.label, btreeMixConfig(sc, mx)))
	}
	grid := runGrid(sc, progress, "fig8/9", btreeVariants(sc), ws)
	btreeSensitivityMemo[memoKey] = grid
	return grid
}

func runFig8(sc Scale, progress io.Writer) Result {
	grid := runBTreeSensitivity(sc, progress)
	res := Result{
		ID: "fig8", Title: "Figure 8 (B+ tree sensitivity, 8 threads, normalized to host-only 100-0-0, scale " + sc.Name + ")",
		Header: []string{"workload", "implementation", "Mops/s", "normalized"},
	}
	base := grid["host-only"][0].MOpsPerSec // 100-0-0 is the first mix
	res.mixRows(grid, btreeSensitivityMixes(), btreeVariants(sc), func(c Cell) []string {
		return []string{f2(c.MOpsPerSec), f2(c.MOpsPerSec / base)}
	})
	res.Notes = append(res.Notes,
		"paper: hybrid-blocking stays within ~93.5-100% of host-only across mixes;",
		"hybrid-nonblocking4 is ~1.46-1.60x host-only on every mix")
	return res
}

func runFig9(sc Scale, progress io.Writer) Result {
	grid := runBTreeSensitivity(sc, progress)
	res := Result{
		ID: "fig9", Title: "Figure 9 (B+ tree DRAM reads/op across mixes, 8 threads, scale " + sc.Name + ")",
		Header: []string{"workload", "implementation", "DRAM reads/op"},
	}
	res.mixRows(grid, btreeSensitivityMixes(), btreeVariants(sc), func(c Cell) []string { return []string{f2(c.ReadsPerOp)} })
	res.Notes = append(res.Notes,
		"paper: host-only's reads/op DROP as targeted insert ratio grows (split-path locality)",
		"and rise again under 50-25-25-uniform; hybrid stays ~flat near the NMP level count")
	return res
}

// --- Ablations ------------------------------------------------------------

func runAblateWindow(sc Scale, progress io.Writer) Result {
	res := Result{
		ID: "ablate-window", Title: "Ablation: in-flight window depth (YCSB-C, 8 threads, scale " + sc.Name + ")",
		Header: []string{"structure", "window", "Mops/s"},
	}
	sk := loadSets{}.onePoint(sc, "skiplist", ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed))
	bt := loadSets{}.onePoint(sc, "btree", ycsb.YCSBC(sc.BTreeRecords, sc.KeyMax, sc.Seed))
	windows := []int{1, 2, 4}
	var jobs []cellJob
	for _, w := range windows {
		// Every depth is named by its window, 1 (blocking) included.
		sv, bv := engineHybrid("skiplist", sc, w), engineHybrid("btree", sc, w)
		sv.name = fmt.Sprintf("hybrid-nonblocking%d", w)
		bv.name = sv.name
		jobs = append(jobs,
			sk.job(sc, sv, fmt.Sprintf("window=%d skiplist", w), sk.label),
			bt.job(sc, bv, fmt.Sprintf("window=%d btree", w), bt.label))
	}
	cells := runCells(sc, progress, jobs)
	structures := []string{"hybrid skiplist", "hybrid B+ tree"} // cells alternate them; rows list the B+ tree first
	for _, st := range []int{1, 0} {
		for i, w := range windows {
			res.Rows = append(res.Rows, []string{structures[st], fmt.Sprint(w), f2(cells[2*i+st].MOpsPerSec)})
		}
	}
	res.Cells = append(res.Cells, cells...)
	res.Notes = append(res.Notes, "deeper windows hide offload latency until NMP cores or the host issue path saturate (§3.5)")
	return res
}

func runAblateSkew(sc Scale, progress io.Writer) Result {
	res := Result{
		ID: "ablate-skew", Title: "Ablation: read-only skew sweep (skiplist, 8 threads, scale " + sc.Name + ")",
		Header: []string{"distribution", "lock-free Mops/s", "hybrid-blocking Mops/s", "hybrid/lock-free", "LF reads/op", "hybrid reads/op"},
	}
	dists := []struct {
		label string
		dist  ycsb.Dist
		theta float64
	}{
		{"uniform", ycsb.Uniform, 0},
		{"zipf-0.50", ycsb.Zipfian, 0.50},
		{"zipf-0.80", ycsb.Zipfian, 0.80},
		{"zipf-0.99", ycsb.Zipfian, 0.99},
	}
	var ws []workload
	loads := loadSets{}
	for _, d := range dists {
		cfg := ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed)
		cfg.Dist, cfg.ZipfTheta = d.dist, d.theta // 0: ycsb's default theta, which uniform ignores
		ws = append(ws, loads.onePoint(sc, d.label, cfg))
	}
	grid := runGrid(sc, progress, "skew", []*variant{skiplistLockFree(sc), engineHybrid("skiplist", sc, 1)}, ws)
	for i, d := range dists {
		lf, hy := grid["lock-free"][i], grid["hybrid-blocking"][i]
		res.Rows = append(res.Rows, []string{
			d.label, f2(lf.MOpsPerSec), f2(hy.MOpsPerSec),
			f2(hy.MOpsPerSec / lf.MOpsPerSec), f2(lf.ReadsPerOp), f2(hy.ReadsPerOp),
		})
		res.Cells = append(res.Cells, lf, hy)
	}
	res.Notes = append(res.Notes,
		"§7: under high skew the conventional structure keeps hot low-level nodes cached,",
		"eroding the hybrid's advantage — the proposed fix (self-adjusting placement) is future work")
	return res
}

// runAblateSplit sweeps the skiplist's NMP level count from 1 to four
// past the configured (paper) split, one build per split, and names the
// fastest cell: the measured knee of the §3.3 LLC-sizing argument.
func runAblateSplit(sc Scale, progress io.Writer) Result {
	res := Result{
		ID: "ablate-split", Title: "Ablation: skiplist NMP level count (YCSB-C, 8 threads, blocking, scale " + sc.Name + ")",
		Header: []string{"NMP levels", "host levels", "Mops/s", "DRAM reads/op"},
	}
	w := loadSets{}.onePoint(sc, "", ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed))
	var jobs []cellJob
	for nl := 1; nl <= min(sc.SkiplistNMPLevels+4, sc.SkiplistLevels-1); nl++ {
		scv := sc
		scv.SkiplistNMPLevels = nl
		jobs = append(jobs, w.job(scv, engineHybrid("skiplist", scv, 1), fmt.Sprintf("split nmp=%d", nl), fmt.Sprintf("nmp-levels=%d", nl)))
	}
	cells := runCells(sc, progress, jobs)
	for i, c := range cells {
		res.Rows = append(res.Rows, []string{fmt.Sprint(i + 1), fmt.Sprint(sc.SkiplistLevels - i - 1), f2(c.MOpsPerSec), f2(c.ReadsPerOp)})
	}
	res.Cells = append(res.Cells, cells...)
	res.Notes = append(res.Notes, splitNote(cells, sc.SkiplistNMPLevels))
	return res
}

// splitNote reads cells as a sweep from nmp=1 up. It names the cell with
// the highest throughput (the first, on a tie), says whether it lies at
// either end of the sweep, and sets the configured split's throughput
// beside it.
func splitNote(cells []Cell, configured int) string {
	best := 0
	for i := range cells {
		if cells[i].MOpsPerSec > cells[best].MOpsPerSec {
			best = i
		}
	}
	where := "inside the sweep"
	if best == 0 || best == len(cells)-1 {
		where = "at the edge of the sweep"
	}
	return fmt.Sprintf("best split: nmp=%d at %s Mops/s, %s; the paper's split nmp=%d: %s Mops/s",
		best+1, f2(cells[best].MOpsPerSec), where, configured, f2(cells[configured-1].MOpsPerSec))
}

func runAblateMMIO(sc Scale, progress io.Writer) Result {
	res := Result{
		ID: "ablate-mmio", Title: "Ablation: offload latency sensitivity (skiplist YCSB-C, 8 threads, scale " + sc.Name + ")",
		Header: []string{"MMIO scale", "hybrid-blocking Mops/s", "hybrid-nonblocking Mops/s"},
	}
	w := loadSets{}.onePoint(sc, "", ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed))
	factors := []float64{0.5, 1, 2, 4}
	var jobs []cellJob
	for _, f := range factors {
		scv := sc
		scv.Machine.Mem.MMIOWriteLatency = uint64(float64(sc.Machine.Mem.MMIOWriteLatency) * f)
		scv.Machine.Mem.MMIOReadLatency = uint64(float64(sc.Machine.Mem.MMIOReadLatency) * f)
		label := fmt.Sprintf("mmio=%.1fx", f)
		jobs = append(jobs,
			w.job(scv, engineHybrid("skiplist", scv, 1), fmt.Sprintf("mmio x%.1f blocking", f), label),
			w.job(scv, engineHybrid("skiplist", scv, scv.Window), fmt.Sprintf("mmio x%.1f non-blocking", f), label))
	}
	cells := runCells(sc, progress, jobs)
	for i, f := range factors {
		b, nb := cells[2*i], cells[2*i+1]
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%.1fx", f), f2(b.MOpsPerSec), f2(nb.MOpsPerSec)})
		res.Cells = append(res.Cells, b, nb)
	}
	res.Notes = append(res.Notes, "non-blocking calls should damp the offload-cost slope (the paper's §3.5 motivation)")
	return res
}

func runAblatePartitions(sc Scale, progress io.Writer) Result {
	res := Result{
		ID: "ablate-partitions", Title: "Ablation: NMP partition count (skiplist YCSB-C, 8 threads, non-blocking, scale " + sc.Name + ")",
		Header: []string{"partitions", "Mops/s"},
	}
	partCounts := []int{1, 2, 4, 8}
	var jobs []cellJob
	loads := loadSets{}
	for _, parts := range partCounts {
		scv := sc
		scv.Machine.Mem.NMPVaults = parts
		w := loads.onePoint(scv, fmt.Sprintf("partitions=%d", parts), ycsb.YCSBC(scv.SkiplistRecords, scv.KeyMax, scv.Seed))
		jobs = append(jobs, w.job(scv, engineHybrid("skiplist", scv, scv.Window), w.label, w.label))
	}
	cells := runCells(sc, progress, jobs)
	for i, parts := range partCounts {
		res.Rows = append(res.Rows, []string{fmt.Sprint(parts), f2(cells[i].MOpsPerSec)})
	}
	res.Cells = append(res.Cells, cells...)
	res.Notes = append(res.Notes, "combiner parallelism scales with partitions until host issue rate dominates")
	return res
}

// --- Registry engine grids ------------------------------------------------

// engineVariants returns the registry-uniform HybriDS variants of one
// engine: the blocking discipline plus the scale's non-blocking window.
// Unlike the figure-specific variant lists above, nothing here names a
// concrete structure — any registered engine grids identically.
func engineVariants(engine string, sc Scale) []*variant {
	return []*variant{engineHybrid(engine, sc, 1), engineHybrid(engine, sc, sc.Window)}
}

// runEngineBSkiplist measures the B-skiplist engine's hybrid across the
// thread sweep, built through the registry like every hybrid.
func runEngineBSkiplist(sc Scale, progress io.Writer) Result {
	variants := engineVariants("bskiplist", sc)
	grid := runGrid(sc, progress, "engine-bskiplist", variants,
		threadSweep(sc, ycsb.YCSBC(sc.BSkiplistRecords, sc.KeyMax, sc.Seed), sc.ThreadCounts))
	res := Result{
		ID:     "engine-bskiplist",
		Title:  "Engine bskiplist (cache-conscious B-skiplist, YCSB-C, scale " + sc.Name + ")",
		Header: []string{"implementation", "threads", "Mops/s", "vs blocking@same"},
	}
	res.sweepRows(sc, grid, variants, "hybrid-blocking")
	res.Notes = append(res.Notes,
		"registry-driven grid: the harness resolves the engine by name and never touches a concrete structure type")
	return res
}
