package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRingBelowCapacityKeepsAllInOrder(t *testing.T) {
	tr := New(8)
	tk := tr.NewTrack("a")
	for i := 0; i < 5; i++ {
		tr.Instant(tk, KindOpDone, uint64(i*10), uint32(i))
	}
	if d := tr.Dropped(tk); d != 0 {
		t.Fatalf("Dropped = %d, want 0", d)
	}
	evs := tr.Events(tk)
	if len(evs) != 5 {
		t.Fatalf("len(Events) = %d, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.TS != uint64(i*10) || ev.Arg != uint32(i) {
			t.Fatalf("event %d = %+v, want TS=%d Arg=%d", i, ev, i*10, i)
		}
	}
}

func TestRingWraparoundKeepsMostRecent(t *testing.T) {
	tr := New(4)
	tk := tr.NewTrack("a")
	for i := 0; i < 10; i++ {
		tr.Span(tk, KindL1Hit, uint64(i), 1, uint32(i))
	}
	if d := tr.Dropped(tk); d != 6 {
		t.Fatalf("Dropped = %d, want 6", d)
	}
	evs := tr.Events(tk)
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4 (ring capacity)", len(evs))
	}
	// Oldest-first: events 6, 7, 8, 9 survive.
	for i, ev := range evs {
		if want := uint64(6 + i); ev.TS != want {
			t.Fatalf("event %d TS = %d, want %d (oldest-first after wrap)", i, ev.TS, want)
		}
	}
}

func TestRingCapacityClampsToOne(t *testing.T) {
	tr := New(0)
	tk := tr.NewTrack("a")
	tr.Instant(tk, KindOpDone, 1, 0)
	tr.Instant(tk, KindOpDone, 2, 0)
	evs := tr.Events(tk)
	if len(evs) != 1 || evs[0].TS != 2 {
		t.Fatalf("Events = %+v, want single newest event at TS 2", evs)
	}
	if d := tr.Dropped(tk); d != 1 {
		t.Fatalf("Dropped = %d, want 1", d)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tk := tr.NewTrack("a"); tk != -1 {
		t.Fatalf("nil NewTrack = %d, want -1", tk)
	}
	tr.Span(-1, KindRun, 0, 5, 0) // must not panic
	tr.Instant(-1, KindOpDone, 0, 0)
	if evs := tr.Events(-1); evs != nil {
		t.Fatalf("nil Events = %v, want nil", evs)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("nil WriteChromeJSON: %v", err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("nil tracer output is not JSON: %v\n%s", err, buf.String())
	}
	if len(ct.TraceEvents) != 0 {
		t.Fatalf("nil tracer exported %d events, want 0", len(ct.TraceEvents))
	}
}

// chromeTrace / chromeEvent mirror the minimal subset of the Chrome
// trace_event JSON format that Perfetto requires to load a capture.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

func TestWriteChromeJSONWellFormed(t *testing.T) {
	tr := New(2)
	host := tr.NewTrack("host/0")
	nmp := tr.NewTrack("nmp/0")
	tr.Span(host, KindL1Hit, 10, 4, 0)
	tr.Instant(host, KindOpDone, 14, 0)
	// Wrap the NMP track so a dropped_events record is emitted.
	for i := 0; i < 5; i++ {
		tr.Span(nmp, KindNMPDRAMRead, uint64(100+i), 20, 1)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}

	var names, dropped int
	var spans, instants int
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "thread_name":
				names++
				want := tr.tracks[ev.Tid].name
				if got := ev.Args["name"]; got != want {
					t.Errorf("thread_name for tid %d = %v, want %q", ev.Tid, got, want)
				}
			case "dropped_events":
				dropped++
				if ev.Tid != nmp {
					t.Errorf("dropped_events on tid %d, want %d", ev.Tid, nmp)
				}
				if got := ev.Args["count"]; got != float64(3) {
					t.Errorf("dropped_events count = %v, want 3", got)
				}
			default:
				t.Errorf("unexpected metadata record %q", ev.Name)
			}
		case "X":
			spans++
			if ev.Dur == 0 {
				t.Errorf("complete event %q has zero dur", ev.Name)
			}
		case "i":
			instants++
			if ev.S != "t" {
				t.Errorf("instant %q scope = %q, want thread scope \"t\"", ev.Name, ev.S)
			}
		default:
			t.Errorf("unexpected ph %q", ev.Ph)
		}
		if ev.Tid < 0 || ev.Tid >= len(tr.tracks) {
			t.Errorf("event tid %d out of range", ev.Tid)
		}
	}
	if names != 2 {
		t.Errorf("thread_name records = %d, want 2", names)
	}
	if dropped != 1 {
		t.Errorf("dropped_events records = %d, want 1", dropped)
	}
	// host span + 2 retained NMP spans; host instant.
	if spans != 3 || instants != 1 {
		t.Errorf("spans=%d instants=%d, want 3 and 1", spans, instants)
	}
}
