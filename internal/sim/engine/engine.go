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
// Run is the one dispatch loop: on its caller's goroutine it pops the
// earliest event and resumes that actor's coroutine (iter.Pull over the
// actor body), which runs until it parks by yielding back. A context switch
// between two actors is therefore two coroutine switches — direct
// goroutine-to-goroutine transfers on one thread that never enter the Go
// scheduler — where a permit passed over a channel costs a send, a park
// and a scheduler pass that may wake another thread (DESIGN §5.1 has the
// numbers). Nothing here is concurrent: the package uses no channel, no go
// statement and no lock.
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
	// The actor's coroutine, created by Run at the actor's first dispatch:
	// resume runs the body until it next parks (or ends), yield is the
	// body's side of that switch, and release ends a coroutine that is
	// still parked when Run is over.
	resume      func() (struct{}, bool)
	release     func()
	yield       func(struct{}) bool
	finished    bool
	blocked     bool
	wakePending bool
	body        func(*Actor)

	// Tracing state (engine tracer only): the trace track carrying this
	// actor's dispatch spans (-1 until first used) and the virtual time
	// the actor was last dispatched.
	track        int
	dispatchedAt uint64
}

// Now returns the actor's current virtual time in cycles.
func (a *Actor) Now() uint64 { return a.now }

// Advance moves the actor's virtual clock forward by c cycles, yielding to
// any other actor whose next event is earlier. Advance(0) is a pure yield:
// it lets same-cycle actors queued earlier run first.
//
// Fast path: if this actor would still be dispatched first — strictly
// earlier than every pending event (ties go to the earlier-queued event,
// so equality must park) — the round trip through the dispatch loop is
// skipped entirely. Advance inlines into the machine layer's Step and
// memory-access call sites (CI checks it still does), so the common
// uncontended case (single runnable actor: build phases, 1-thread cells,
// an unblocker racing ahead of the actor it just woke) costs one
// comparison against Engine.nextAt and no coroutine switch. Dispatch order
// is identical to the slow path.
func (a *Actor) Advance(c uint64) {
	a.now += c
	if a.now >= a.eng.nextAt {
		a.repark()
	}
}

// repark is Advance's slow path: queue the actor's continuation and park
// until the dispatch loop reaches it. Split from Advance so the fast path
// stays inlinable.
func (a *Actor) repark() {
	e := a.eng
	if e.tr != nil {
		a.noteRun()
	}
	e.push(a)
	a.park()
}

// unwind is the private panic value that ends a parked actor's body when
// Run is over: see Engine.releaseAll.
type unwind struct{}

// park switches back to the dispatch loop and returns when the loop
// dispatches this actor's next event. If Run ended instead (yield reports
// the coroutine was released), the body must not execute another line:
// park panics with unwind, which runs the body's deferred calls on the way
// up and is recovered in Actor.run.
func (a *Actor) park() {
	if !a.yield(struct{}{}) {
		panic(unwind{})
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
func (a *Actor) Stopping() bool { return a.eng.stopping }

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
	a.eng.push(b)
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
	a := &Actor{
		ID:     len(e.actors),
		Name:   name,
		Daemon: daemon,
		eng:    e,
		body:   body,
		track:  -1,
	}
	if e.running {
		// Inherit the current virtual time so causality is preserved.
		a.now = e.Now()
	}
	e.stSpawns.Inc()
	e.actors = append(e.actors, a)
	e.liveAll++
	if !daemon {
		e.live++
	}
	e.push(a)
	return a
}

// run is the actor's coroutine: the body, then the bookkeeping of a
// finished actor. A body that panics re-panics here with the actor named
// and the body's stack attached (the coroutine switch would otherwise drop
// it), and iter.Pull carries that to the resume call in Run.
func (a *Actor) run(yield func(struct{}) bool) {
	a.yield = yield
	defer func() {
		switch r := recover().(type) {
		case nil, unwind:
		default:
			panic(fmt.Sprintf("engine: actor %q panicked at cycle %d: %v\n%s", a.Name, a.now, r, debug.Stack()))
		}
	}()
	a.body(a)
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
					e.push(b)
				}
			}
		}
	}
}

// Run is the dispatch loop: until every actor (daemons included) has
// finished, it pops the earliest event and resumes that actor, which runs
// until it parks or ends. A deadlock — unfinished actors but no pending
// events, meaning an actor waits on a condition no other actor can ever
// satisfy — panics here, on the caller's goroutine, naming the live
// actors; so does a panic in an actor body. On every way out, actors still
// parked are unwound first (releaseAll).
func (e *Engine) Run() {
	if e.running {
		panic("engine: Run called twice")
	}
	e.running = true
	if e.live == 0 {
		e.stopping = true
	}
	defer e.releaseAll()
	for e.liveAll > 0 {
		if len(e.pq) == 0 {
			panic("engine: deadlock: live actors but no pending events: " + e.liveNames())
		}
		ev := e.pq.pop()
		e.nextAt = math.MaxUint64
		if len(e.pq) > 0 {
			e.nextAt = e.pq[0].at
		}
		a := ev.a
		e.cur = a
		e.stDispatches.Inc()
		if e.tr != nil {
			a.dispatchedAt = ev.at
		}
		if a.resume == nil {
			a.resume, a.release = iter.Pull(a.run)
		}
		a.resume()
	}
}

// releaseAll ends every coroutine Run left parked (none after a normal
// end; the blocked actors after a deadlock; every other started actor
// after a body panic): the parked yield reports false and park unwinds the
// body. Releasing a coroutine that already ended does nothing.
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

func (e *Engine) push(a *Actor) {
	e.seq++
	e.pq.push(event{at: a.now, seq: e.seq, a: a})
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
