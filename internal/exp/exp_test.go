package exp

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/sim/machine"
	"hybrids/internal/ycsb"
)

func TestRegistryIDsUniqueAndFindable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if got, ok := Find(e.ID); !ok || got.ID != e.ID {
			t.Fatalf("Find(%q) failed", e.ID)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find accepted unknown id")
	}
	for _, id := range []string{"table1", "table2", "fig5a", "fig5b", "fig6a", "fig6b", "fig7", "fig8", "fig9"} {
		if !seen[id] {
			t.Fatalf("paper artifact %s missing from registry", id)
		}
	}
}

// TestTable1ListsConfiguration pins the Table 1 machine: the rows it
// prints at small scale are the rows EXPERIMENTS.md quotes, and the
// document still quotes them.
func TestTable1ListsConfiguration(t *testing.T) {
	want := [][]string{
		{"host cores", "8 out-of-order-equivalent @ 2GHz, 1 thread/core"},
		{"L1 dcache", "64KB private, 2-way LRU, 2-cycle, 128B blocks"},
		{"L2 cache", "1024KB shared, 8-way LRU, 20-cycle, 128B blocks"},
		{"memory", "1024MB host + 1024MB NMP, 8+8 vaults, 8 banks/vault"},
		{"DRAM timing", "tRP=28 tRCD=28 tCL=28 tBURST=7 cycles"},
		{"NMP cores", "8 in-order single-cycle @ 2GHz, one 128B node buffer"},
		{"scratchpad", "40KB per NMP core (publication lists host-mapped)"},
		{"offload path", "MMIO write 60 / read 120 / +4 per extra word / host DRAM extra 80 cycles"},
	}
	if got := runTable1(SmallScale(), nil).Rows; !reflect.DeepEqual(got, want) {
		t.Fatalf("table1 rows:\n got %q\nwant %q", got, want)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range want {
		if line := "| " + row[0] + " | " + row[1] + " |"; !strings.Contains(string(doc), line) {
			t.Errorf("EXPERIMENTS.md does not quote table1 row %q", line)
		}
	}
}

// TestTable2MachineRows checks Table 2's three rows that follow from the
// machine alone, at small scale, without simulating.
func TestTable2MachineRows(t *testing.T) {
	reqWrite, respRead, llcMiss := offloadCosts(SmallScale().Machine.Mem)
	if reqWrite != 84 || respRead != 128 || llcMiss != 165 {
		t.Fatalf("request write %d, response read %d, LLC miss %d; want 84, 128, 165", reqWrite, respRead, llcMiss)
	}
}

func TestFig5aTinyProducesFullGrid(t *testing.T) {
	sc := TinyScale()
	res := runFig5a(sc, nil)
	wantRows := 4 * len(sc.ThreadCounts) // 4 variants
	if len(res.Rows) != wantRows {
		t.Fatalf("fig5a rows = %d, want %d", len(res.Rows), wantRows)
	}
	for _, row := range res.Rows {
		if metricOf(t, row[2]) <= 0 {
			t.Fatalf("non-positive throughput in row %v", row)
		}
	}
}

func TestFig6bTinyReadsPositive(t *testing.T) {
	res := runFig6b(TinyScale(), nil)
	if len(res.Rows) != 3 {
		t.Fatalf("fig6b rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if metricOf(t, row[1]) <= 0 {
			t.Fatalf("non-positive reads in row %v", row)
		}
	}
}

func TestTable2DelaysPositive(t *testing.T) {
	res := runTable2(TinyScale(), nil)
	if len(res.Rows) != 6 {
		t.Fatalf("table2 rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows[:5] {
		if metricOf(t, row[1]) <= 0 {
			t.Fatalf("non-positive delay in row %v", row)
		}
	}
}

func TestSensitivityMixesCoverPaper(t *testing.T) {
	labels := map[string]bool{}
	for _, m := range btreeSensitivityMixes() {
		labels[m.label] = true
		if m.read+m.insert+m.remove != 100 {
			t.Fatalf("mix %s does not sum to 100", m.label)
		}
	}
	for _, want := range []string{"100-0-0", "90-5-5", "70-15-15", "50-25-25", "50-25-25-uniform"} {
		if !labels[want] {
			t.Fatalf("missing sensitivity mix %s", want)
		}
	}
}

func TestRunCellDeterministic(t *testing.T) {
	sc := TinyScale()
	run := func() Cell {
		grid := skiplistYCSBCGrid(sc, []int{sc.MaxThreads}, nil)
		return grid["hybrid-blocking"][0]
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.ReadsPerOp != b.ReadsPerOp {
		t.Fatalf("cells differ across identical runs: %+v vs %+v", a, b)
	}
}

func TestMarkdownAndFormatRender(t *testing.T) {
	res := Result{
		ID: "x", Title: "T", Header: []string{"a", "b"},
		Rows:  [][]string{{"1", "2"}},
		Notes: []string{"n"},
	}
	if !strings.Contains(res.Format(), "== T ==") || !strings.Contains(res.Format(), "note: n") {
		t.Fatalf("Format output wrong:\n%s", res.Format())
	}
	md := res.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "### T") {
		t.Fatalf("Markdown output wrong:\n%s", md)
	}
}

func metricOf(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("cell %q not numeric", s)
	}
	return v
}

// faultyStore panics inside a simulated body: on thread 1's fifth call.
type faultyStore struct {
	structure
	calls int
}

func (f *faultyStore) Apply(c *machine.Ctx, thread int, op kv.Op) (uint32, bool) {
	if thread == 1 {
		if f.calls++; f.calls == 5 {
			panic("store bug")
		}
	}
	return f.structure.Apply(c, thread, op)
}

// boomStore's bulk build panics.
type boomStore struct{ structure }

func (boomStore) Build([]ycsb.Pair) { panic("build bug") }

// TestFailingCellNamesItself: a panic in one cell's simulated body reaches
// the grid's caller (it used to kill the process from an actor goroutine)
// carrying the cell's grid tag, workload label, variant and thread count,
// and under it the engine's account of which actor failed and when.
func TestFailingCellNamesItself(t *testing.T) {
	sc := QuickScale()
	sc.Parallel = 1
	good := skiplistLockFree(sc)
	faulty := &variant{name: "faulty", open: func(m *machine.Machine) structure {
		return &faultyStore{structure: good.open(m)}
	}}
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{`cell "figX C-100 faulty threads=2"`, "variant faulty, 2 threads, scale quick", `actor "driver1"`, "store bug"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic lacks %q:\n%s", want, msg)
			}
		}
	}()
	runGrid(sc, nil, "figX", []*variant{good, faulty},
		[]workload{loadSets{}.onePoint(sc, "C-100", ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed))})
	t.Fatal("the grid returned")
}

// TestUnstartedHybridFailsLoudly: runCell starts a structure only when it
// is a SimHybrid, so a hybrid whose Start is hidden has no NMP combiners,
// and its first offload deadlocks the engine, which names the cell.
func TestUnstartedHybridFailsLoudly(t *testing.T) {
	sc := QuickScale()
	sc.Parallel = 1
	hybrid := engineHybrid("skiplist", sc, 1)
	unstarted := &variant{name: "unstarted", open: func(m *machine.Machine) structure {
		return struct{ structure }{hybrid.open(m)}
	}}
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{`cell "figX C-100 unstarted threads=`, "deadlock"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic lacks %q:\n%s", want, msg)
			}
		}
	}()
	runGrid(sc, nil, "figX", []*variant{unstarted},
		[]workload{loadSets{}.onePoint(sc, "C-100", ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed))})
	t.Fatal("the grid returned")
}

// TestFailingBuildSurfaces: a bulk build that panics reaches runCells'
// caller at any worker count, naming the building cell, and a group member
// that was to restore the failed build's image says so instead of
// dereferencing a nil image.
func TestFailingBuildSurfaces(t *testing.T) {
	sc := QuickScale()
	sc.ThreadCounts = []int{1, 2, 4}
	good := skiplistLockFree(sc)
	boom := &variant{name: "boom", open: func(m *machine.Machine) structure {
		return boomStore{good.open(m)}
	}}
	ws := threadSweep(sc, ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed), sc.ThreadCounts)
	for _, parallel := range []int{1, 3} {
		sc.Parallel = parallel
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `cell "figX boom threads=`) || !strings.Contains(msg, "build bug") {
					t.Errorf("parallel %d: panic does not name the failed build:\n%s", parallel, msg)
				}
			}()
			runGrid(sc, nil, "figX", []*variant{boom}, ws)
			t.Errorf("parallel %d: the grid returned", parallel)
		}()
	}

	g := new(imageGroup)
	g.left.Store(2)
	cell := func(name string) (msg string) {
		defer func() { msg, _ = recover().(string) }()
		runCell(cellJob{sc: sc, v: boom, load: ws[0].load, streams: ws[0].streams, progress: name}, nil, g)
		return ""
	}
	if msg := cell("builder"); !strings.Contains(msg, "build bug") {
		t.Errorf("building cell's panic: %s", msg)
	}
	if msg := cell("sibling"); !strings.Contains(msg, `cell "sibling"`) ||
		!strings.Contains(msg, `image group build failed in cell "builder": build bug`) {
		t.Errorf("sibling's panic: %s", msg)
	}
}

// TestBTreeSensitivityMemoKeysOnScale: the fig8/fig9 memo serves a repeat
// of the same scale without building, and a scale that differs in any
// field a cell sees (seed, attribution) is measured afresh.
func TestBTreeSensitivityMemoKeysOnScale(t *testing.T) {
	clear(btreeSensitivityMemo)
	defer clear(btreeSensitivityMemo)
	sc := QuickScale()
	seed42 := runFig8(sc, nil).Cells
	builds.Store(0)
	runFig9(sc, nil)
	if n := builds.Load(); n != 0 {
		t.Errorf("fig9 after fig8 at one scale built %d times, want the memo", n)
	}
	sc.Seed = 43
	if reflect.DeepEqual(runFig8(sc, nil).Cells, seed42) {
		t.Error("fig8 at seed 43 returned the seed-42 cells")
	}
	sc.Attr = true
	for i, c := range runFig8(sc, nil).Cells {
		if c.Attr == nil {
			t.Fatalf("fig8 with Attr: cell %d (%s) has no attribution", i, c.Label)
		}
	}
}

// TestLoadSetsShareOnlyEqualLoads: loadSets hands every mix of a sensitivity
// grid and every skew one slice, on the grounds that a ycsb load depends only
// on Records, KeyMax and Seed. Check that a generator of each such config
// really loads exactly that slice, and that another seed gets its own.
func TestLoadSetsShareOnlyEqualLoads(t *testing.T) {
	sc := QuickScale()
	var cfgs []ycsb.Config
	for _, mx := range btreeSensitivityMixes() {
		cfgs = append(cfgs, btreeMixConfig(sc, mx))
	}
	for _, theta := range []float64{0.5, 0.99} {
		cfg := ycsb.YCSBC(sc.BTreeRecords, sc.KeyMax, sc.Seed)
		cfg.ZipfTheta = theta
		cfgs = append(cfgs, cfg)
	}
	loads := loadSets{}
	for _, cfg := range cfgs {
		got := loads.onePoint(sc, "", cfg).load
		if want := kv.SortedUnique(ycsb.New(cfg).Load()); !slices.Equal(got, want) {
			t.Fatalf("config %+v: the shared load set is not the one its generator loads", cfg)
		}
	}
	if len(loads) != 1 {
		t.Fatalf("%d load sets for %d configs of one Records/KeyMax/Seed", len(loads), len(cfgs))
	}
	cfg := cfgs[0]
	cfg.Seed++
	if got := loads.onePoint(sc, "", cfg).load; len(loads) != 2 || slices.Equal(got, loads[ycsb.Config{Records: cfg.Records, KeyMax: cfg.KeyMax, Seed: sc.Seed}]) {
		t.Fatal("another seed shared the first seed's load set")
	}
}

// TestSplitNoteNamesBest checks that ablate-split's note names the cell
// with the highest throughput, inside the sweep or at either end of it,
// and the configured split's throughput beside it.
func TestSplitNoteNamesBest(t *testing.T) {
	cases := []struct {
		mops []float64
		want string
	}{
		{[]float64{3.81, 4.12, 4.74, 4.68, 4.10},
			"best split: nmp=3 at 4.74 Mops/s, inside the sweep; the paper's split nmp=4: 4.68 Mops/s"},
		{[]float64{5.50, 4.12, 4.42, 4.20, 4.10},
			"best split: nmp=1 at 5.50 Mops/s, at the edge of the sweep; the paper's split nmp=4: 4.20 Mops/s"},
		{[]float64{3.81, 4.12, 4.42, 4.62, 4.74},
			"best split: nmp=5 at 4.74 Mops/s, at the edge of the sweep; the paper's split nmp=4: 4.62 Mops/s"},
		// A tie names the first (fewest NMP levels).
		{[]float64{4.00, 4.74, 4.74, 4.62, 4.10},
			"best split: nmp=2 at 4.74 Mops/s, inside the sweep; the paper's split nmp=4: 4.62 Mops/s"},
	}
	for _, c := range cases {
		cells := make([]Cell, len(c.mops))
		for i, m := range c.mops {
			cells[i].MOpsPerSec = m
		}
		if got := splitNote(cells, 4); got != c.want {
			t.Errorf("splitNote(%v) =\n  %q\nwant\n  %q", c.mops, got, c.want)
		}
	}
}
