package exp

import (
	"fmt"
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

func TestTable1ListsConfiguration(t *testing.T) {
	res := runTable1(TinyScale(), nil)
	if len(res.Rows) < 6 {
		t.Fatalf("table1 rows = %d", len(res.Rows))
	}
	text := res.Format()
	for _, want := range []string{"L1 dcache", "DRAM timing", "NMP cores", "scratchpad"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table1 missing %q:\n%s", want, text)
		}
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
	Store
	calls int
}

func (f *faultyStore) Apply(c *machine.Ctx, thread int, op kv.Op) (uint32, bool) {
	if thread == 1 {
		if f.calls++; f.calls == 5 {
			panic("store bug")
		}
	}
	return f.Store.Apply(c, thread, op)
}

// TestFailingCellNamesItself: a panic in one cell's simulated body reaches
// the grid's caller (it used to kill the process from an actor goroutine)
// carrying the cell's grid tag, workload label, variant and thread count,
// and under it the engine's account of which actor failed and when.
func TestFailingCellNamesItself(t *testing.T) {
	sc := QuickScale()
	sc.Parallel = 1
	good := skiplistLockFree(sc)
	faulty := &variant{name: "faulty", open: func(m *machine.Machine) instance {
		in := good.open(m)
		in.Store = &faultyStore{Store: in.Store}
		return in
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
		[]workload{onePoint(sc, "C-100", ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed))})
	t.Fatal("the grid returned")
}
