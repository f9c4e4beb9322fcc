// Package offload is the structure-agnostic NMP offload runtime shared by
// every hybrid data structure. It owns the machinery of §3.2–§3.5 that is
// identical across structures — publication-list setup and combiner
// spawning, blocking calls, the non-blocking in-flight window, the
// retry/restart loop and offload instrumentation — while each structure
// contributes only an internal/hds Adapter: the host-side pre-work that
// routes an operation and encodes its request, and the host-side
// post-work that interprets the response. Apply and ApplyBatch therefore
// exist in exactly one place; the hybrid skiplist (§3.3) and hybrid B+
// tree (§3.4) are small adapters over this runtime.
//
// The protocol vocabulary (PrepareCtl, Verdict, Adapter) and the
// in-flight Window live in internal/hds, shared with the native runtime
// (internal/core); this package instantiates them with the simulator's
// virtual-time context and MMIO publication lists.
package offload

import (
	"hybrids/internal/dsim/fc"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/metrics"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/trace"
)

// Config parameterizes a Runtime.
type Config struct {
	// Window is the number of in-flight NMP calls per host thread used by
	// ApplyBatch (1 = blocking behaviour). Each thread owns Window
	// publication slots per partition: blocking calls use the first,
	// window position i maps to slot thread*Window+i.
	Window int
	// SlotsPerPartition overrides the publication-list size (default
	// HostCores*Window). It must cover (thread+1)*Window for every
	// calling thread.
	SlotsPerPartition int
}

// Adapter is the simulator's instantiation of the shared hds.Adapter
// contract: virtual-time context, 32-bit kv operations and the fc wire
// pair. S carries one operation's host-side state across the runtime's
// retry loop.
type Adapter[S any] interface {
	hds.Adapter[*machine.Ctx, kv.Op, fc.Request, fc.Response, S]
}

// Runtime owns the per-partition publication lists and the offload
// protocol loops for one data structure instance.
type Runtime struct {
	m      *machine.Machine
	pubs   []*fc.PubList
	ports  []hds.Port[*machine.Ctx, fc.Request, fc.Response]
	window int

	cPosted    *metrics.Counter
	cRetries   *metrics.Counter
	cLocal     *metrics.Counter
	cFollowUps *metrics.Counter
}

// New lays out one publication list per NMP partition and returns the
// runtime. Offload counters (offload/posted, offload/retries,
// offload/local, offload/followups) register in the machine's metrics
// registry.
func New(m *machine.Machine, cfg Config) *Runtime {
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	slots := cfg.SlotsPerPartition
	if slots <= 0 {
		slots = m.Cfg.Mem.HostCores * cfg.Window
	}
	rt := &Runtime{m: m, window: cfg.Window}
	for p := 0; p < m.Cfg.Mem.NMPVaults; p++ {
		pub := fc.NewPubList(m, p, slots)
		rt.pubs = append(rt.pubs, pub)
		rt.ports = append(rt.ports, pub)
	}
	reg := m.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rt.cPosted = reg.Counter("offload/posted")
	rt.cRetries = reg.Counter("offload/retries")
	rt.cLocal = reg.Counter("offload/local")
	rt.cFollowUps = reg.Counter("offload/followups")
	return rt
}

// Window returns the per-thread in-flight call budget.
func (rt *Runtime) Window() int { return rt.window }

// Partitions returns the number of NMP partitions served.
func (rt *Runtime) Partitions() int { return len(rt.pubs) }

// Start spawns partition p's flat-combining combiner daemon serving
// handle. Call once per partition before Machine.Run.
func (rt *Runtime) Start(p int, handle fc.Handler) {
	pub := rt.pubs[p]
	rt.m.SpawnNMP(p, func(c *machine.Ctx) { fc.Serve(c, pub, handle) })
}

// Delays aggregates Table 2 offload delay instrumentation across
// partitions.
func (rt *Runtime) Delays() fc.Delays {
	var d fc.Delays
	for _, p := range rt.pubs {
		d.Add(p.Delays())
	}
	return d
}

// simPark is the simulator's Window park hook: cycles parked waiting for
// any in-flight completion are offload wait; fc.Done carves out each
// request's serialization share when it observes the completion.
func simPark(c *machine.Ctx) {
	parked := c.Now()
	c.Block()
	c.AttrAdd(trace.BucketOffloadWait, c.Now()-parked)
}

// newWindow builds the shared in-flight window over the runtime's
// publication lists with the simulator's park hook.
func newWindow(thread, k int, ports []hds.Port[*machine.Ctx, fc.Request, fc.Response]) *hds.Window[*machine.Ctx, fc.Request, fc.Response] {
	return hds.NewWindow(thread, k, ports, simPark)
}

// Apply runs one operation with blocking NMP calls (§3.2): host pre-work,
// post, monitored wait, host post-work, restarting on RETRY. It is the
// kv.Store implementation shared by every hybrid structure.
func Apply[S any](rt *Runtime, ad Adapter[S], c *machine.Ctx, thread int, op kv.Op) (uint32, bool) {
	st := ad.Begin(c, op)
	slot := thread * rt.window
	for attempt := 0; ; attempt++ {
		req, part, ctl, ok := ad.Prepare(c, op, &st, attempt, false)
		switch ctl {
		case hds.PrepareLocal:
			rt.cLocal.Inc()
			return 0, ok
		case hds.PrepareRestart:
			continue
		}
		rt.cPosted.Inc()
		resp := rt.pubs[part].Call(c, slot, req)
	finish:
		v := ad.Finish(c, op, &st, resp)
		switch v.Kind {
		case hds.OpDone:
			return uint32(v.Value), v.OK
		case hds.OpFollowUp:
			rt.cFollowUps.Inc()
			resp = rt.pubs[part].Call(c, slot, v.Next)
			goto finish
		}
		rt.cRetries.Inc()
	}
}

// inflight carries one non-blocking operation through the window.
type inflight[S any] struct {
	op   kv.Op
	part int
	st   S
}

// ApplyBatch runs ops with non-blocking NMP calls (§3.5), keeping up to
// the runtime's window of operations in flight and harvesting completions
// out of order. It returns the number of operations that succeeded. It is
// the kv.AsyncStore implementation shared by every hybrid structure.
//
// Because the caller cannot see individual completions inside the batch,
// ApplyBatch records Ctx.OpDone itself at every per-operation completion
// point (local fallback or harvested OpDone verdict) — so with attribution
// enabled, each sample covers the interval between two successive
// completions on the thread, and a thread's samples still sum exactly to
// its measured cycles. Blocking drivers (one Apply per op) record OpDone
// themselves.
func ApplyBatch[S any](rt *Runtime, ad Adapter[S], c *machine.Ctx, thread int, ops []kv.Op) int {
	w := newWindow(thread, rt.window, rt.ports)
	succeeded := 0
	gate := 0
	var deferred []*inflight[S]

	issue := func(a *inflight[S]) {
		for attempt := 0; ; attempt++ {
			req, part, ctl, ok := ad.Prepare(c, a.op, &a.st, attempt, true)
			switch ctl {
			case hds.PrepareLocal:
				rt.cLocal.Inc()
				if ok {
					succeeded++
				}
				c.OpDone()
				return
			case hds.PrepareRestart:
				continue
			}
			a.part = part
			rt.cPosted.Inc()
			w.Post(c, part, req, a)
			return
		}
	}
	reissue := func(a *inflight[S]) {
		rt.cRetries.Inc()
		if gate > 0 {
			deferred = append(deferred, a)
		} else {
			issue(a)
		}
	}
	harvest := func() {
		tag, resp, pos := w.Harvest(c)
		a := tag.(*inflight[S])
		v := ad.Finish(c, a.op, &a.st, resp)
		switch v.Gate {
		case hds.GateAcquire:
			gate++
		case hds.GateRelease:
			gate--
		}
		switch v.Kind {
		case hds.OpDone:
			if v.OK {
				succeeded++
			}
			c.OpDone()
		case hds.OpRetry:
			reissue(a)
		case hds.OpFollowUp:
			rt.cFollowUps.Inc()
			w.PostAt(c, pos, a.part, v.Next, a)
		}
	}

	next := 0
	for next < len(ops) || !w.Empty() || len(deferred) > 0 {
		if gate == 0 && len(deferred) > 0 && !w.Full() {
			a := deferred[0]
			deferred = deferred[1:]
			issue(a)
			continue
		}
		if gate == 0 && next < len(ops) && !w.Full() {
			a := &inflight[S]{op: ops[next]}
			next++
			a.st = ad.Begin(c, a.op)
			issue(a)
			continue
		}
		harvest()
	}
	return succeeded
}
