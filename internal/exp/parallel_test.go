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
// ablate-window covers a per-cell-axis grid with labels and groups of one.
// (fig8 and fig9 are deliberately excluded: their shared memo would make
// the two runs trivially identical.) CI runs this under -race.
func TestParallelMatchesSerialQuickScale(t *testing.T) {
	for _, id := range []string{"fig5a", "fig6a", "ablate-window"} {
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
		{sc: sc, v: skiplistHybrid(sc, 1, false), load: load, streams: streams, progress: "b", label: "second"},
		{sc: sc, v: skiplistHybrid(sc, sc.Window, true), load: load, streams: streams, progress: "c", label: "third"},
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
