package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"hybrids/internal/ycsb"
)

// TestParallelMatchesSerialQuickScale is the determinism contract behind
// Scale.Parallel: every grid cell simulates on a private machine, so a
// parallel run must reproduce the serial run bit for bit — formatted tables
// and the full per-cell metric dump alike. fig5a and fig6a cover the
// thread-sweep shape at three thread counts, where four workers share
// three-cell image groups (one builds and keeps running while two restore);
// ablate-window covers a per-cell-axis grid with labels whose groups span
// windows; fig8 covers groups that span mixes. CI runs this under -race.
func TestParallelMatchesSerialQuickScale(t *testing.T) {
	for _, id := range []string{"fig5a", "fig6a", "ablate-window", "fig8"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		serial := QuickScale()
		serial.ThreadCounts = []int{1, 2, 4}
		serial.Parallel = 1
		parallel := serial
		parallel.Parallel = 4

		rs := e.Run(serial, nil)
		rp := e.Run(parallel, nil)

		if rs.Format() != rp.Format() {
			t.Errorf("%s: parallel formatted output differs from serial\nserial:\n%s\nparallel:\n%s",
				id, rs.Format(), rp.Format())
		}
		bs, err := json.Marshal(rs.Cells)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := json.Marshal(rp.Cells)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bs, bp) {
			t.Errorf("%s: parallel per-cell metrics differ from serial", id)
		}
	}
}

// TestRunCellsOrderAndLabels checks that runCells returns cells in
// declaration order with the declared labels, independent of worker count.
func TestRunCellsOrderAndLabels(t *testing.T) {
	sc := QuickScale()
	gen := ycsb.New(ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed))
	load := gen.Load()
	streams := gen.Streams(sc.MaxThreads, sc.WarmupPerThread+sc.OpsPerThread)
	jobs := []cellJob{
		{sc: sc, v: skiplistLockFree(sc), load: load, streams: streams, progress: "a", label: "first"},
		{sc: sc, v: engineHybrid("skiplist", sc, 1), load: load, streams: streams, progress: "b", label: "second"},
		{sc: sc, v: engineHybrid("skiplist", sc, sc.Window), load: load, streams: streams, progress: "c", label: "third"},
	}

	sc.Parallel = 1
	serial := runCells(sc, nil, jobs)
	sc.Parallel = 3
	conc := runCells(sc, nil, jobs)

	want := []string{"first", "second", "third"}
	for i, c := range serial {
		if c.Label != want[i] {
			t.Errorf("serial cell %d label = %q, want %q", i, c.Label, want[i])
		}
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], conc[i]) {
			t.Errorf("cell %d differs between serial and parallel runs", i)
		}
	}
}

// TestBuildsPerExperiment pins how many bulk builds each registered
// experiment takes at quick scale: one per distinct (build key, load set,
// machine). A key made too fine, or an open that starts depending on the
// window, fails here instead of only costing time.
func TestBuildsPerExperiment(t *testing.T) {
	want := map[string]int64{
		"table1": 0, "fig5a": 3, "fig5b": 3, "fig6a": 2, "fig6b": 2, "table2": 1,
		"fig7": 3, "fig8": 2, "fig9": 2, "ablate-window": 2, "ablate-skew": 2,
		"ablate-split": 9, "ablate-mmio": 4, "ablate-partitions": 4, "engine-bskiplist": 1,
	}
	clear(btreeSensitivityMemo)
	defer clear(btreeSensitivityMemo)
	for _, e := range Registry() {
		w, ok := want[e.ID]
		if !ok {
			t.Errorf("%s: no pinned build count", e.ID)
			continue
		}
		clear(btreeSensitivityMemo)
		builds.Store(0)
		e.Run(QuickScale(), nil)
		if got := builds.Load(); got != w {
			t.Errorf("%s: %d bulk builds, want %d", e.ID, got, w)
		}
	}
}
