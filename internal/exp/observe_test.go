package exp

import (
	"path/filepath"
	"reflect"
	"testing"

	"hybrids/internal/metrics"
	"hybrids/internal/ycsb"
)

func TestTraceSpecClaimsExactlyOnce(t *testing.T) {
	var nilSpec *TraceSpec
	if nilSpec.claim() {
		t.Fatal("nil TraceSpec claimed")
	}
	if err := nilSpec.Err(); err != nil {
		t.Fatalf("nil TraceSpec Err = %v", err)
	}
	spec := &TraceSpec{Path: filepath.Join(t.TempDir(), "t.json")}
	if !spec.claim() {
		t.Fatal("first claim refused")
	}
	if spec.claim() {
		t.Fatal("second claim granted: a spec must capture exactly one cell")
	}
}

func TestTraceSpecEventsDefault(t *testing.T) {
	if got := (&TraceSpec{}).events(); got != DefaultTraceEvents {
		t.Fatalf("events() = %d, want DefaultTraceEvents %d", got, DefaultTraceEvents)
	}
	if got := (&TraceSpec{Events: 64}).events(); got != 64 {
		t.Fatalf("events() = %d, want explicit 64", got)
	}
}

func TestTraceSpecWriteReportsError(t *testing.T) {
	spec := &TraceSpec{Path: filepath.Join(t.TempDir(), "missing-dir", "t.json")}
	spec.write(nil)
	if spec.Err() == nil {
		t.Fatal("write to an uncreatable path reported no error")
	}
}

func TestAttrFromEmptySnapshotIsNil(t *testing.T) {
	if got := attrFrom(metrics.Snapshot{}); got != nil {
		t.Fatalf("attrFrom(empty) = %+v, want nil", got)
	}
}

// TestTracedCellsMatchUntraced: tracing is observationally transparent.
// A traced cell runs with the engine's run-ahead sections off, an untraced
// one with them on, and both give the same Cell for the blocking and the
// non-blocking hybrid of every engine at 4 threads.
func TestTracedCellsMatchUntraced(t *testing.T) {
	sc := QuickScale()
	sc.Attr = true
	for engine, records := range map[string]int{"skiplist": sc.SkiplistRecords, "btree": sc.BTreeRecords, "bskiplist": sc.BSkiplistRecords} {
		gen := ycsb.New(ycsb.YCSBC(records, sc.KeyMax, sc.Seed))
		load, streams := gen.Load(), gen.Streams(4, sc.WarmupPerThread+sc.OpsPerThread)
		for _, v := range []*variant{engineHybrid(engine, sc, 1), engineHybrid(engine, sc, sc.Window)} {
			j := cellJob{sc: sc, v: v, load: load, streams: streams, progress: engine + " " + v.name}
			untraced := runCell(j, nil, nil)
			traced := runCell(j, &TraceSpec{Path: filepath.Join(t.TempDir(), "trace.json")}, nil)
			if !reflect.DeepEqual(traced, untraced) {
				t.Errorf("%s: traced cell differs from untraced:\n traced %+v\nuntraced %+v", j.progress, traced, untraced)
			}
		}
	}
}
