// Package offload is the NMP offload protocol of §3.2–§3.5, written once
// for every simulated hybrid data structure. It owns the machinery that is
// identical across structures — publication-list setup and combiner
// spawning, one protocol loop over the in-flight window (retry, restart,
// follow-up; a blocking call is the window of one) and offload
// instrumentation — while each structure contributes only an Adapter: the
// host-side pre-work that routes an operation and encodes its request,
// and the host-side post-work that interprets the response. Apply and
// ApplyBatch therefore exist in exactly one place; the hybrid skiplist (§3.3, which with every
// level NMP-side is also the NMP-based baseline), the hybrid B+ tree
// (§3.4) and the hybrid B-skiplist are small adapters over this runtime.
//
// The protocol is typed directly on the simulator's virtual-time context
// (*machine.Ctx), its 32-bit operations (kv.Op) and the publication-slot
// wire pair (fc.Request, fc.Response). The native runtime (internal/core)
// shares only the request vocabulary of internal/hds with it.
package offload

import (
	"hybrids/internal/dsim/fc"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/metrics"
	"hybrids/internal/sim/machine"
)

// PrepareCtl is an Adapter.Prepare directive.
type PrepareCtl uint8

const (
	// PrepareOffload posts the returned request to the returned partition.
	PrepareOffload PrepareCtl = iota
	// PrepareLocal reports the operation completed host-side without an
	// NMP call (e.g. a remove that lost its host-side race); the ok result
	// is the operation's outcome.
	PrepareLocal
	// PrepareRestart asks the runtime to call Prepare again with the next
	// attempt number (a failed optimistic host traversal).
	PrepareRestart
)

// VerdictKind classifies an Adapter.Finish outcome.
type VerdictKind uint8

const (
	// OpDone: the operation completed with Verdict.Value/OK.
	OpDone VerdictKind = iota
	// OpRetry: restart the whole operation from Prepare (the adapter has
	// already done any cleanup, e.g. unlinking a stale shortcut).
	OpRetry
	// OpFollowUp: post Verdict.Next on the same publication slot — a
	// multi-phase exchange like the B+ tree's LOCK_PATH / RESUME_INSERT
	// conversation, which the combiner keys by slot.
	OpFollowUp
)

// Gate adjusts the runtime's deferral gate. While the gate is held
// (acquires exceed releases), the non-blocking loop stops issuing new
// traversals: a host descend could otherwise spin on the calling thread's
// own host-side locks, deadlocking the single actor.
type Gate uint8

// Gate adjustments a Verdict can request.
const (
	GateNone    Gate = iota // leave the gate unchanged
	GateAcquire             // hold the gate: defer new traversals
	GateRelease             // release one hold
)

// Verdict is Adapter.Finish's decision for one response.
type Verdict struct {
	// Kind classifies the outcome.
	Kind VerdictKind
	// OK is the operation's success flag when Kind is OpDone.
	OK bool
	// Value is the operation's result value when Kind is OpDone.
	Value uint64
	// Next is the follow-up request when Kind is OpFollowUp.
	Next fc.Request
	// Gate adjusts the deferral gate (B+ tree path locks).
	Gate Gate
}

// Adapter supplies the structure-specific hooks of the offload protocol.
// S is one operation's host-side state (pre-allocated nodes, the locked
// path, protocol phase) carried across the runtime's retry loop.
type Adapter[S any] interface {
	// Begin performs once-per-operation host pre-work (e.g. drawing an
	// insert height and pre-allocating the host node) and returns the
	// operation's initial state.
	Begin(c *machine.Ctx, op kv.Op) S
	// Prepare performs the host-side traversal for one attempt: it routes
	// op to a partition and encodes the request, charging any host-side
	// work (including per-attempt backoff) on c. attempt counts Prepare
	// calls for this operation since it was last issued: 0 on its first
	// call and on the first call after each OpRetry, one more after each
	// PrepareRestart.
	Prepare(c *machine.Ctx, op kv.Op, st *S, attempt int) (req fc.Request, part int, ctl PrepareCtl, ok bool)
	// Finish interprets a response, performing host-side post-work (e.g.
	// linking host levels, locking the path), and decides what happens
	// next.
	Finish(c *machine.Ctx, op kv.Op, st *S, resp fc.Response) Verdict
}

// Runtime owns the per-partition publication lists and the offload
// protocol loop for one data structure instance.
type Runtime struct {
	m    *machine.Machine
	pubs []*fc.PubList
	// window is the number of in-flight NMP calls per host thread used by
	// ApplyBatch (1 = blocking behaviour).
	window int

	cPosted    *metrics.Counter
	cRetries   *metrics.Counter
	cLocal     *metrics.Counter
	cFollowUps *metrics.Counter
}

// New lays out one publication list per NMP partition and returns the
// runtime. window is the number of in-flight NMP calls per host thread
// used by ApplyBatch (values below 1 mean 1, blocking behaviour). Each
// list has HostCores × window slots: window position i of thread t maps to
// slot t*window+i, and Apply's one operation takes position 0. Offload
// counters (offload/posted, offload/retries, offload/local,
// offload/followups) register in the machine's metrics registry.
func New(m *machine.Machine, window int) *Runtime {
	window = max(window, 1)
	rt := &Runtime{m: m, window: window}
	for p := 0; p < m.Cfg.Mem.NMPVaults; p++ {
		rt.pubs = append(rt.pubs, fc.NewPubList(m, p, m.Cfg.Mem.HostCores*window))
	}
	rt.cPosted = m.Metrics.Counter("offload/posted")
	rt.cRetries = m.Metrics.Counter("offload/retries")
	rt.cLocal = m.Metrics.Counter("offload/local")
	rt.cFollowUps = m.Metrics.Counter("offload/followups")
	return rt
}

// Start spawns partition p's flat-combining combiner daemon serving
// handle. Call once per partition before Machine.Run.
func (rt *Runtime) Start(p int, handle fc.Handler) {
	pub := rt.pubs[p]
	rt.m.SpawnNMP(p, func(c *machine.Ctx) { fc.Serve(c, pub, handle) })
}

// Apply runs one operation with blocking NMP calls (§3.2) — the window of
// one, through ApplyBatch's loop — and returns its outcome. Every hybrid
// structure's Apply is this; the caller records Ctx.OpDone.
func Apply[S any](rt *Runtime, ad Adapter[S], c *machine.Ctx, thread int, op kv.Op) (value uint32, ok bool) {
	run(rt, ad, c, thread, []kv.Op{op}, func(v uint32, o bool) { value, ok = v, o })
	return value, ok
}

// ApplyBatch runs ops with non-blocking NMP calls (§3.5), keeping up to
// the runtime's window of operations in flight (1: blocking calls) and
// harvesting completions out of order. It returns the number of operations
// that succeeded. Every hybrid structure's ApplyBatch is this.
//
// Because the caller cannot see individual completions inside the batch,
// ApplyBatch records Ctx.OpDone itself at every per-operation completion
// point (local fallback or harvested OpDone verdict) — so with attribution
// enabled, each sample covers the interval between two successive
// completions on the thread, and a thread's samples still sum exactly to
// its measured cycles.
func ApplyBatch[S any](rt *Runtime, ad Adapter[S], c *machine.Ctx, thread int, ops []kv.Op) int {
	succeeded := 0
	run(rt, ad, c, thread, ops, func(_ uint32, ok bool) {
		if ok {
			succeeded++
		}
		c.OpDone()
	})
	return succeeded
}

// run is the one offload protocol loop: issue in order through thread's
// window, harvest, retry, post follow-ups on the same slot, and defer new
// traversals while the gate is held. Each outcome goes to done.
func run[S any](rt *Runtime, ad Adapter[S], c *machine.Ctx, thread int, ops []kv.Op, done func(value uint32, ok bool)) {
	w := openWindow[S](rt.pubs, thread, rt.window)
	gate := 0
	var deferred []*inflight[S]

	issue := func(a *inflight[S]) {
		for attempt := 0; ; attempt++ {
			req, part, ctl, ok := ad.Prepare(c, a.op, &a.st, attempt)
			switch ctl {
			case PrepareLocal:
				rt.cLocal.Inc()
				done(0, ok)
				return
			case PrepareRestart:
				continue
			}
			a.part = part
			rt.cPosted.Inc()
			w.post(c, a, req)
			return
		}
	}

	next := 0
	for next < len(ops) || !w.empty() || len(deferred) > 0 {
		if gate == 0 && len(deferred) > 0 && !w.full() {
			a := deferred[0]
			deferred = deferred[1:]
			issue(a)
			continue
		}
		if gate == 0 && next < len(ops) && !w.full() {
			a := &inflight[S]{op: ops[next]}
			next++
			a.st = ad.Begin(c, a.op)
			issue(a)
			continue
		}
		a, resp, pos := w.harvest(c)
		v := ad.Finish(c, a.op, &a.st, resp)
		switch v.Gate {
		case GateAcquire:
			gate++
		case GateRelease:
			gate--
		}
		switch v.Kind {
		case OpDone:
			done(uint32(v.Value), v.OK)
		case OpRetry:
			rt.cRetries.Inc()
			if gate > 0 {
				deferred = append(deferred, a)
			} else {
				issue(a)
			}
		case OpFollowUp:
			rt.cFollowUps.Inc()
			w.postAt(c, pos, a, v.Next)
		}
	}
}
