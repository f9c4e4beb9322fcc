package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteChromeJSON exports every track's retained events as Chrome
// trace_event JSON (the "JSON Array Format" with a traceEvents wrapper),
// loadable in Perfetto or chrome://tracing.
//
// Each track becomes one thread (tid = track ID) of a single process, with
// a thread_name metadata record carrying the track's registered name.
// Spans export as complete events (ph "X"), instants as thread-scoped
// instant events (ph "i"). Timestamps are virtual cycles written into the
// microsecond field — the viewer's time axis therefore reads in cycles,
// not wall time (1 "µs" = 1 simulated cycle).
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		bw.WriteString(s)
	}
	for tid, tk := range t.tracks {
		emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			tid, strconv.Quote(tk.name)))
		if d := t.Dropped(tid); d > 0 {
			emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"dropped_events","args":{"count":%d}}`, tid, d))
		}
	}
	for tid := range t.tracks {
		for _, ev := range t.Events(tid) {
			name := strconv.Quote(ev.Kind.String())
			cat := strconv.Quote(kindNames[ev.Kind].cat)
			if ev.Dur > 0 {
				emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"name":%s,"cat":%s,"args":{"arg":%d}}`,
					tid, ev.TS, ev.Dur, name, cat, ev.Arg))
			} else {
				emit(fmt.Sprintf(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":%s,"cat":%s,"args":{"arg":%d}}`,
					tid, ev.TS, name, cat, ev.Arg))
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
