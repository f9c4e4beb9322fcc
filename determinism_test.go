package hybrids_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybrids/internal/exp"
	"hybrids/internal/sim/trace"
)

// TestExperimentDeterminism is the top-level determinism regression: the
// simulator is a deterministic virtual-time machine, so running the same
// experiment twice at the same scale and seed must reproduce every emitted
// row byte-for-byte and every measured cell exactly.
func TestExperimentDeterminism(t *testing.T) {
	e, ok := exp.Find("fig5a")
	if !ok {
		t.Fatal("fig5a not registered")
	}
	first := e.Run(exp.QuickScale(), nil)
	second := e.Run(exp.QuickScale(), nil)

	if len(first.Rows) == 0 {
		t.Fatal("fig5a emitted no rows")
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		for i := range first.Rows {
			if i < len(second.Rows) && !reflect.DeepEqual(first.Rows[i], second.Rows[i]) {
				t.Errorf("row %d differs: %v vs %v", i, first.Rows[i], second.Rows[i])
			}
		}
		t.Fatal("fig5a rows are not deterministic")
	}
	if !reflect.DeepEqual(first.Cells, second.Cells) {
		t.Fatal("fig5a measured cells are not deterministic")
	}
	if first.Format() != second.Format() {
		t.Fatal("fig5a formatted output is not byte-identical")
	}
}

// TestObservabilityTransparency is the observability regression referenced
// by package trace: enabling tracing and attribution must not change a
// single measured value — the instrumented run's rows and per-cell
// measurements are identical to the baseline's, the capture is valid Chrome
// trace_event JSON, and every cell's attribution buckets sum exactly to its
// attributed total.
func TestObservabilityTransparency(t *testing.T) {
	e, ok := exp.Find("fig5a")
	if !ok {
		t.Fatal("fig5a not registered")
	}
	base := e.Run(exp.QuickScale(), nil)

	sc := exp.QuickScale()
	sc.Attr = true
	path := filepath.Join(t.TempDir(), "trace.json")
	sc.Trace = &exp.TraceSpec{Path: path}
	obs := e.Run(sc, nil)

	if err := sc.Trace.Err(); err != nil {
		t.Fatalf("trace capture failed: %v", err)
	}
	if !reflect.DeepEqual(base.Rows, obs.Rows) {
		t.Fatal("tracing+attribution changed emitted rows")
	}
	if len(base.Cells) != len(obs.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(base.Cells), len(obs.Cells))
	}
	for i := range base.Cells {
		b, o := base.Cells[i], obs.Cells[i]
		if b.Cycles != o.Cycles || b.Ops != o.Ops ||
			b.MOpsPerSec != o.MOpsPerSec || b.ReadsPerOp != o.ReadsPerOp {
			t.Errorf("cell %d (%s/%d threads) measurements changed under observation:\nbase %+v\nobs  %+v",
				i, b.Variant, b.Threads, b, o)
		}
		if o.Attr == nil {
			t.Errorf("cell %d has no attribution summary", i)
			continue
		}
		var sum uint64
		for bk := trace.Bucket(0); bk < trace.NumBuckets; bk++ {
			sum += o.Attr.BucketSum(bk)
		}
		if sum != o.Attr.Total {
			t.Errorf("cell %d attribution buckets sum to %d, want total %d", i, sum, o.Attr.Total)
		}
		if o.Attr.Samples == 0 {
			t.Errorf("cell %d recorded no attribution samples", i)
		}
	}

	// The capture must be Perfetto-loadable Chrome trace_event JSON: a
	// traceEvents array of records that each carry a known phase, a pid and
	// a tid; complete events ("X") carry a name and ts, instants ("i") a
	// name, ts and thread scope, and at least one thread_name metadata
	// record names a track.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read capture: %v", err)
	}
	var capture struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			TS   *uint64        `json:"ts"`
			Name string         `json:"name"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &capture); err != nil {
		t.Fatalf("capture is not valid JSON: %v", err)
	}
	if len(capture.TraceEvents) == 0 {
		t.Fatal("capture holds no events")
	}
	named := false
	for i, ev := range capture.TraceEvents {
		if ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d (%s %q): missing pid/tid", i, ev.Ph, ev.Name)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				if name, _ := ev.Args["name"].(string); name == "" {
					t.Fatalf("event %d: thread_name metadata without a name", i)
				}
				named = true
			}
		case "X":
			if ev.Name == "" || ev.TS == nil {
				t.Fatalf("event %d (%q): complete event without name/ts", i, ev.Name)
			}
		case "i":
			if ev.Name == "" || ev.TS == nil {
				t.Fatalf("event %d: instant without name/ts", i)
			}
			if ev.S != "t" {
				t.Fatalf("event %d (%q): instant scope %q, want thread scope \"t\"", i, ev.Name, ev.S)
			}
		default:
			t.Fatalf("event %d: unknown phase %q", i, ev.Ph)
		}
	}
	if !named {
		t.Fatal("capture has no thread_name metadata")
	}
}
