// Package engine implements a deterministic virtual-time discrete-event
// engine for architecture simulation.
//
// Simulated hardware agents (host threads, near-memory cores) are Actors:
// coroutines that run ordinary Go code but advance a virtual cycle clock
// through explicit Advance calls. Exactly one actor makes progress at any
// real-time instant and actors are dispatched in virtual-time order with
// deterministic FIFO tie-breaking, so a simulation with fixed inputs always
// produces identical interleavings and identical results — host garbage
// collection or OS scheduling can never perturb simulated time.
//
// The parking actor is the dispatcher: it pops the earliest event itself
// and resumes that actor's coroutine (iter.Pull over the body) directly, or
// yields down its chain of resumers to it; Run's goroutine is the bottom of
// the chain. The parks of a run-ahead section are replayed in dispatch with
// no switch at all (DESIGN §5.1). Exactly one goroutine runs at a time: the
// package uses no channel, no go statement and no lock.
//
// Every exit has a defined end. A panic in an actor body, and the deadlock
// panic, surface on Run's caller; and whether Run returns or panics, every
// coroutine it created has been unwound and released before it does.
package engine

import (
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sort"

	"hybrids/internal/metrics"
	"hybrids/internal/sim/trace"
)

// Actor is a simulated execution agent with its own virtual clock.
// All methods must be called only from the actor's own body, while that
// actor is the one dispatched by the engine.
type Actor struct {
	// ID is the engine-assigned index, unique per engine.
	ID int
	// Name labels the actor in diagnostics.
	Name string
	// Daemon actors do not keep the simulation alive: once every
	// non-daemon actor has finished, Stopping reports true and daemons
	// are expected to return from their body promptly.
	Daemon bool

	eng *Engine
	now uint64
	// The actor's coroutine, created at the actor's first dispatch: resume
	// runs the body until it next yields (or ends), yield is the body's side
	// of that switch, and release ends a coroutine that is still parked
	// when Run is over.
	resume      func() (struct{}, bool)
	release     func()
	yield       func(struct{}) bool
	finished    bool
	blocked     bool
	wakePending bool
	// resumer: the actor is inside resume on another actor's coroutine, so
	// it is on the running actor's chain of resumers.
	resumer bool
	body    func(*Actor)

	// Tracing state (engine tracer only): the trace track carrying this
	// actor's dispatch spans (-1 until first used) and the virtual time
	// the actor was last dispatched.
	track        int
	dispatchedAt uint64

	// ahead holds the clock readings at which the actor's last run-ahead
	// section would have parked; dispatch replays ahead[replayed:].
	ahead    []uint64
	replayed int
}

// Now returns the actor's current virtual time in cycles.
func (a *Actor) Now() uint64 { return a.now }

// Advance moves the actor's virtual clock forward by c cycles, yielding to
// any other actor whose next event is earlier. Advance(0) is a pure yield:
// it lets same-cycle actors queued earlier run first.
//
// Fast path: if this actor would still be dispatched first — strictly
// earlier than every pending event (ties go to the earlier-queued event,
// so equality must park) — the heap push and pop are skipped entirely.
// Advance inlines into the machine layer's Step and memory-access call
// sites (CI checks it still does), so the common uncontended case (single
// runnable actor: build phases, 1-thread cells, an unblocker racing ahead
// of the actor it just woke) costs one comparison against Engine.nextAt
// and no coroutine switch. Dispatch order is identical to the slow path.
func (a *Actor) Advance(c uint64) {
	a.now += c
	if a.now >= a.eng.nextAt {
		a.repark()
	}
}

// repark is Advance's slow path: queue the actor's continuation and park
// until it is dispatched. Split from Advance so the fast path stays
// inlinable.
func (a *Actor) repark() {
	e := a.eng
	if e.section == a { // record the park; nextAt 0 makes every later one record
		a.ahead = append(a.ahead, a.now)
		e.nextAt = 0
		return
	}
	if e.tr != nil {
		a.noteRun()
	}
	e.push(a, a.now)
	a.park()
}

// BeginRunAhead opens a run-ahead section, in which Advance records the
// times it would park at instead of parking. EndRunAhead takes the first,
// and dispatch replays the rest with no switch, so every event, dispatch
// and clock is as it would have been (DESIGN §5.1), provided no other actor
// reads or writes what the section touches before it ends. Block, Unblock,
// Spawn, Stopping and a body's return panic in a section; with a tracer
// none opens.
func (a *Actor) BeginRunAhead() {
	a.eng.outside("BeginRunAhead")
	if a.eng.tr == nil {
		a.eng.section = a
	}
}

// EndRunAhead closes the actor's run-ahead section, if one is open, and
// takes its first recorded park.
func (a *Actor) EndRunAhead() {
	if e := a.eng; e.section == a {
		e.section = nil
		if len(a.ahead) > 0 {
			a.replayed = 1
			e.push(a, a.ahead[0])
			a.park()
		}
	}
}

// outside panics inside a run-ahead section: call's effect is not replayed.
func (e *Engine) outside(call string) {
	if e.section != nil {
		panic(call + " inside a run-ahead section")
	}
}

// unwind is the private panic value that ends a parked actor's body when
// Run is over: see Engine.releaseAll.
type unwind struct{}

// park pops events until one is this actor's. Another actor parked in its
// own coroutine is resumed directly; when it yields back (or ends) the loop
// takes the actor it left in e.pending, or pops again. An event of one of
// this actor's resumers, or a failure, is handed down the chain: e.pending
// names it and this actor yields, until its own event resumes it. If the
// engine failed or Run is over (yield reports the coroutine released), the
// body must not execute another line: park panics with unwind, which runs
// the body's deferred calls and is recovered in Actor.run.
func (a *Actor) park() {
	e := a.eng
	if e.failure != "" {
		panic(unwind{})
	}
	b := e.dispatch()
	for b != a {
		if b == nil || b.resumer {
			e.pending = b
			e.switches++
			if !a.yield(struct{}{}) {
				panic(unwind{})
			}
			return
		}
		a.resumer = true
		e.resume(b)
		a.resumer = false
		b, e.pending = e.pending, nil
		if b == nil && e.failure == "" {
			b = e.dispatch()
		}
	}
}

// noteRun records the dispatch span that ends now: the actor's continuous
// run from its last dispatch to this park/finish. Called only when the
// engine tracer is set, from the actor's own body.
func (a *Actor) noteRun() {
	e := a.eng
	if a.track < 0 {
		a.track = e.tr.NewTrack("actor/" + a.Name)
	}
	e.tr.Span(a.track, trace.KindRun, a.dispatchedAt, a.now-a.dispatchedAt, uint32(a.ID))
}

// Stopping reports whether every non-daemon actor has finished. Daemon
// actors must poll it and return once it reports true.
func (a *Actor) Stopping() bool { a.eng.outside("Stopping"); return a.eng.stopping }

// Block parks the actor with no scheduled wake-up: it resumes only when
// another actor calls Unblock on it (modelling a hardware monitor/mwait on
// a doorbell) or when the engine enters the stopping state. Virtual time
// does not advance while blocked beyond the unblocker's wake time.
// A wake permit posted by Unblock while the target was not blocked —
// still running, or parked inside Advance — is consumed by the target's
// next Block, which then returns immediately without parking, so a wake
// racing with the waiter's final check is never lost and costs no
// dispatch.
func (a *Actor) Block() {
	if a.wakePending {
		a.wakePending = false
		return
	}
	e := a.eng
	e.outside("Block")
	if e.stopping {
		return
	}
	e.stBlocks.Inc()
	if e.tr != nil {
		a.noteRun()
	}
	a.blocked = true
	a.park()
}

// Unblock schedules blocked actor b to resume delay cycles after the
// caller's current time. If b is not blocked (running, or parked inside
// Advance), a wake permit is recorded for b's next Block instead. Must be
// called by the currently running actor.
func (a *Actor) Unblock(b *Actor, delay uint64) {
	a.eng.outside("Unblock")
	a.eng.stUnblocks.Inc()
	if !b.blocked {
		b.wakePending = true
		return
	}
	b.blocked = false
	t := a.now + delay
	if t < b.now {
		t = b.now
	}
	b.now = t
	a.eng.push(b, t)
}

// Engine schedules actors in virtual-time order.
// The zero value is not usable; call New.
type Engine struct {
	// cur is the actor dispatched last. Its clock is the engine's: Advance
	// moves only the actor's.
	cur *Actor
	seq uint64
	pq  eventHeap
	// nextAt is pq's earliest event time, or MaxUint64 when pq is empty:
	// the one field Advance's fast path reads.
	nextAt   uint64
	actors   []*Actor
	live     int // unfinished non-daemon actors
	liveAll  int // unfinished actors of any kind
	stopping bool
	running  bool

	// pending is the actor a yielding actor handed its event to: one of
	// its resumers, which the chain passes it down to.
	pending *Actor
	// failure is the panic Run raises (a body's panic or the deadlock),
	// carried down the chain so no body can recover another actor's.
	failure string
	// section is the actor whose run-ahead section is open, if any.
	section *Actor
	// switches counts coroutine switches, one per resume or yield, and
	// replays the parks dispatch replayed with no switch (for tests; no
	// registry counter, so outputs do not change).
	switches, replays uint64

	// tr is the engine's event tracer; nil (the default) disables dispatch
	// tracing at the cost of one pointer comparison per park.
	tr *trace.Tracer

	stDispatches *metrics.Counter
	stSpawns     *metrics.Counter
	stBlocks     *metrics.Counter
	stUnblocks   *metrics.Counter
}

// New returns an empty engine at virtual time zero, instrumented into a
// private registry (replace it with AttachMetrics to share a machine-wide
// one).
func New() *Engine {
	e := &Engine{nextAt: math.MaxUint64}
	e.AttachMetrics(metrics.NewRegistry())
	return e
}

// AttachMetrics re-registers the engine's scheduler counters
// (engine/dispatches, engine/spawns, engine/blocks, engine/unblocks) in
// reg. Call before Run; counts recorded earlier stay in the old registry.
func (e *Engine) AttachMetrics(reg *metrics.Registry) {
	e.stDispatches = reg.Counter("engine/dispatches")
	e.stSpawns = reg.Counter("engine/spawns")
	e.stBlocks = reg.Counter("engine/blocks")
	e.stUnblocks = reg.Counter("engine/unblocks")
}

// SetTracer attaches t as the engine's event tracer: every actor records a
// dispatch span (trace.KindRun) per continuous run on its own lazily
// created "actor/<name>" track. A nil t (the default) disables dispatch
// tracing. Call before Run.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tr = t }

// Now returns the engine's current virtual time: the clock of the actor
// running or, after Run, of the last to run (zero before Run).
func (e *Engine) Now() uint64 {
	if e.cur == nil {
		return 0
	}
	return e.cur.now
}

// Spawn registers a new actor whose body runs starting at the spawner's
// current virtual time (or cycle 0 when called before Run). Spawn may be
// called before Run or from a running actor, never from outside while the
// engine runs.
func (e *Engine) Spawn(name string, daemon bool, body func(*Actor)) *Actor {
	e.outside("Spawn")
	a := &Actor{
		ID:     len(e.actors),
		Name:   name,
		Daemon: daemon,
		eng:    e,
		body:   body,
		track:  -1,
		now:    e.Now(), // the spawner's time, so causality is preserved
	}
	e.stSpawns.Inc()
	e.actors = append(e.actors, a)
	e.liveAll++
	if !daemon {
		e.live++
	}
	e.push(a, a.now)
	return a
}

// run is the actor's coroutine: the body, then the bookkeeping of a
// finished actor. A body that panics is recorded as the engine's failure,
// with the actor named and the body's stack attached, and the coroutine
// ends; its resumer carries the failure down to Run.
func (a *Actor) run(yield func(struct{}) bool) {
	a.yield = yield
	defer func() {
		switch r := recover().(type) {
		case nil, unwind:
		default:
			if a.eng.failure == "" {
				a.eng.failure = fmt.Sprintf("engine: actor %q panicked at cycle %d: %v\n%s", a.Name, a.now, r, debug.Stack())
			}
		}
	}()
	a.body(a)
	a.eng.outside("return")
	a.finished = true
	e := a.eng
	if e.tr != nil {
		a.noteRun()
	}
	e.liveAll--
	if !a.Daemon {
		e.live--
		if e.live == 0 {
			e.stopping = true
			// Wake every blocked actor so daemons can observe
			// Stopping and exit.
			for _, b := range e.actors {
				if b.blocked && !b.finished {
					b.blocked = false
					if b.now < a.now {
						b.now = a.now
					}
					e.push(b, b.now)
				}
			}
		}
	}
}

// Run is the bottom of the dispatch chain: until every actor (daemons
// included) has finished, it pops the earliest event and resumes that
// actor, which runs, and dispatches in turn when it parks, until the chain
// yields back. A deadlock — unfinished actors but no pending events,
// meaning an actor waits on a condition no other actor can ever satisfy —
// panics here, on the caller's goroutine, naming the live actors; so does
// a panic in an actor body. On every way out, actors still parked are
// unwound first (releaseAll).
func (e *Engine) Run() {
	if e.running {
		panic("engine: Run called twice")
	}
	e.running = true
	if e.live == 0 {
		e.stopping = true
	}
	defer e.releaseAll()
	for e.liveAll > 0 && e.failure == "" {
		if a := e.dispatch(); a != nil {
			e.resume(a)
		}
	}
	if e.failure != "" {
		panic(e.failure)
	}
}

// dispatch pops the earliest event, past any run-ahead parks it replays,
// and makes its actor the current one. It is called only while some actor
// is unfinished, so an empty heap is a deadlock: dispatch records it as the
// failure and returns nil.
func (e *Engine) dispatch() *Actor {
	for {
		if len(e.pq) == 0 {
			e.failure = "engine: deadlock: live actors but no pending events: " + e.liveNames()
			return nil
		}
		ev := e.pq.pop()
		e.nextAt = math.MaxUint64
		if len(e.pq) > 0 {
			e.nextAt = e.pq[0].at
		}
		a := ev.a
		e.cur = a
		e.stDispatches.Inc()
		if n := len(a.ahead); n > 0 {
			// A run-ahead park: the first recorded Advance to fail its test parks a.
			for a.replayed < n && a.ahead[a.replayed] < e.nextAt {
				a.replayed++
			}
			if a.replayed < n {
				e.push(a, a.ahead[a.replayed])
				a.replayed++
				e.replays++
				continue
			}
			a.ahead = a.ahead[:0]
		}
		if e.tr != nil {
			a.dispatchedAt = ev.at
		}
		return a
	}
}

// resume switches to a's coroutine, created at its first dispatch, and
// returns when a yields or ends.
func (e *Engine) resume(a *Actor) {
	if a.resume == nil {
		a.resume, a.release = iter.Pull(a.run)
	}
	e.switches++
	a.resume()
}

// releaseAll ends every coroutine Run left parked (none after a normal
// end; the blocked actors after a deadlock; every other started actor
// after a body panic, the failed actor's resumers included, since each
// yielded the failure down): the parked yield reports false and park
// unwinds the body. Releasing a coroutine that already ended does nothing.
func (e *Engine) releaseAll() {
	for _, a := range e.actors {
		if a.release != nil {
			a.release()
		}
	}
}

func (e *Engine) liveNames() string {
	var names []string
	for _, a := range e.actors {
		if !a.finished {
			names = append(names, a.Name)
		}
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

type event struct {
	at  uint64
	seq uint64
	a   *Actor
}

func (e *Engine) push(a *Actor, at uint64) {
	e.seq++
	e.pq.push(event{at: at, seq: e.seq, a: a})
	e.nextAt = e.pq[0].at
}

// eventHeap is a binary min-heap ordered by (at, seq). A hand-rolled heap
// avoids container/heap interface dispatch on the hottest path in the
// simulator.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	// Zero the vacated slot so the heap's backing array does not pin the
	// moved event's *Actor (and its closed-over state) for the rest of
	// the run.
	s[n] = event{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
