// Package trace is the simulator's opt-in, zero-cost-when-off observability
// layer: a cycle-level event tracer plus a per-operation latency-attribution
// accumulator, both recording in virtual time.
//
// A Tracer owns one bounded ring buffer per track (a track is one timeline
// in the exported view: a host core, an NMP core, or an engine actor).
// Subsystems emit typed spans and instants through nil-safe methods, so a
// disabled tracer — the nil *Tracer — costs exactly one pointer comparison
// at every emission site and allocates nothing. Recording never advances
// virtual time and never mutates simulated state, so enabling tracing is
// observationally transparent: a traced run produces bit-identical
// simulation results to an untraced one (enforced by a regression test at
// the repository root).
//
// The recorded events export as Chrome trace_event JSON (WriteChromeJSON),
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing; see
// docs/OBSERVABILITY.md for the event taxonomy and how to read a capture.
package trace

// Kind is the type of a recorded event. Every kind belongs to one layer of
// the simulator (engine, memsys, offload fabric); the layer determines the
// category string in the Chrome export.
type Kind uint8

// Event kinds, grouped by emitting layer.
const (
	// KindRun is an engine dispatch span: one actor's continuous run
	// between its dispatch and its next park (Arg: actor ID).
	KindRun Kind = iota
	// KindL1Hit is a host access served by the core's private L1 (span).
	KindL1Hit
	// KindL2Hit is a host access that missed L1 and hit the shared LLC
	// (span).
	KindL2Hit
	// KindDRAMRead is a host LLC-miss block fetch from its home vault
	// (span; Arg: RowOutcome of the bank access).
	KindDRAMRead
	// KindInvalidate is a MESI-style invalidation of remote L1 copies
	// performed by a store (instant; Arg: number of sharers invalidated).
	KindInvalidate
	// KindTLBMiss is a host TLB miss triggering a page-table walk
	// (instant).
	KindTLBMiss
	// KindMMIOWrite is an uncached host burst into an NMP scratchpad
	// (span).
	KindMMIOWrite
	// KindMMIORead is an uncached host read burst from an NMP scratchpad
	// (span).
	KindMMIORead
	// KindNMPBufHit is an NMP access served by the core's node-size
	// buffer register (span).
	KindNMPBufHit
	// KindNMPDRAMRead is an NMP block read from the core's own vault
	// (span; Arg: RowOutcome).
	KindNMPDRAMRead
	// KindDRAMWrite is a write-through or writeback block access that
	// occupies a DRAM bank (span).
	KindDRAMWrite
	// KindScratchOp is an NMP core access to its own scratchpad (span).
	KindScratchOp
	// KindOffloadPost is a host thread publishing a request into a
	// publication slot (instant; Arg: slot).
	KindOffloadPost
	// KindOffloadCall is the host-side offload round trip: request posted
	// to completion observed (span; Arg: slot).
	KindOffloadCall
	// KindOffloadServe is the NMP-side service of one request: combiner
	// pickup to response written (span; Arg: slot).
	KindOffloadServe
	// KindCombine is one flat-combining window: the combiner serving every
	// doorbell-pending slot of a scan back to back (span; Arg: number of
	// requests served).
	KindCombine
	// KindOpDone marks one completed data-structure operation on the
	// calling host core's track (instant).
	KindOpDone

	numKinds
)

// kindNames are each kind's event name and layer category in the Chrome
// export.
var kindNames = [numKinds]struct{ name, cat string }{
	KindRun:          {"run", "engine"},
	KindL1Hit:        {"l1-hit", "mem"},
	KindL2Hit:        {"l2-hit", "mem"},
	KindDRAMRead:     {"dram-read", "mem"},
	KindInvalidate:   {"invalidate", "coherence"},
	KindTLBMiss:      {"tlb-miss", "mem"},
	KindMMIOWrite:    {"mmio-write", "offload"},
	KindMMIORead:     {"mmio-read", "offload"},
	KindNMPBufHit:    {"nmp-buf-hit", "mem"},
	KindNMPDRAMRead:  {"nmp-dram-read", "mem"},
	KindDRAMWrite:    {"dram-write", "mem"},
	KindScratchOp:    {"scratch-op", "mem"},
	KindOffloadPost:  {"offload-post", "offload"},
	KindOffloadCall:  {"offload-call", "offload"},
	KindOffloadServe: {"offload-serve", "offload"},
	KindCombine:      {"combine", "offload"},
	KindOpDone:       {"op-done", "op"},
}

// String returns the kind's name as used in the Chrome export.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k].name
	}
	return "unknown"
}

// Event is one recorded trace event. Dur == 0 marks an instant; Dur > 0 a
// span covering [TS, TS+Dur) in virtual cycles.
type Event struct {
	// TS is the event's start time in virtual cycles.
	TS uint64
	// Dur is the span length in virtual cycles (0 for instants).
	Dur uint64
	// Kind is the event type.
	Kind Kind
	// Arg carries kind-specific detail (slot index, sharer count,
	// RowOutcome, ...).
	Arg uint32
}

// track is one timeline's bounded ring buffer. Appends past the capacity
// overwrite the oldest events, so a long run keeps its most recent window.
type track struct {
	name string
	buf  []Event
	n    uint64 // total events ever appended; buf[(n-1)%cap] is newest
}

// Tracer records typed events into per-track ring buffers. The nil *Tracer
// is the disabled tracer: every method is nil-safe and free of side
// effects, so call sites need no conditional beyond the receiver itself.
type Tracer struct {
	cap    int
	tracks []*track
}

// New returns an enabled tracer whose tracks each retain the most recent
// capPerTrack events (minimum 1).
func New(capPerTrack int) *Tracer {
	if capPerTrack < 1 {
		capPerTrack = 1
	}
	return &Tracer{cap: capPerTrack}
}

// NewTrack registers a new timeline and returns its track ID, or -1 on the
// nil tracer. Track IDs are dense and become the tid of the Chrome export.
func (t *Tracer) NewTrack(name string) int {
	if t == nil {
		return -1
	}
	t.tracks = append(t.tracks, &track{name: name, buf: make([]Event, 0, t.cap)})
	return len(t.tracks) - 1
}

// Span records a [start, start+dur) event on tr. No-op on the nil tracer
// or a negative track ID.
func (t *Tracer) Span(tr int, k Kind, start, dur uint64, arg uint32) {
	if t == nil || tr < 0 {
		return
	}
	t.tracks[tr].append(Event{TS: start, Dur: dur, Kind: k, Arg: arg})
}

// Instant records a point event at ts on tr. No-op on the nil tracer or a
// negative track ID.
func (t *Tracer) Instant(tr int, k Kind, ts uint64, arg uint32) {
	if t == nil || tr < 0 {
		return
	}
	t.tracks[tr].append(Event{TS: ts, Kind: k, Arg: arg})
}

func (tk *track) append(ev Event) {
	if len(tk.buf) < cap(tk.buf) {
		tk.buf = append(tk.buf, ev)
	} else {
		tk.buf[tk.n%uint64(cap(tk.buf))] = ev
	}
	tk.n++
}

// Dropped returns how many events tr's ring has overwritten.
func (t *Tracer) Dropped(tr int) uint64 {
	tk := t.tracks[tr]
	if tk.n <= uint64(cap(tk.buf)) {
		return 0
	}
	return tk.n - uint64(cap(tk.buf))
}

// Events returns tr's retained events oldest-first (a copy).
func (t *Tracer) Events(tr int) []Event {
	if t == nil || tr < 0 {
		return nil
	}
	tk := t.tracks[tr]
	out := make([]Event, 0, len(tk.buf))
	if tk.n > uint64(len(tk.buf)) {
		// Ring has wrapped: oldest retained event sits at the write
		// cursor.
		start := int(tk.n % uint64(len(tk.buf)))
		out = append(out, tk.buf[start:]...)
		out = append(out, tk.buf[:start]...)
		return out
	}
	return append(out, tk.buf...)
}
