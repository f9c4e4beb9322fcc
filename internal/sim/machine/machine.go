// Package machine assembles the simulated NMP system of the HybriDS paper:
// a virtual-time engine, the Table 1 memory system, host hardware threads
// and per-partition NMP cores. Simulated programs (the data structure
// algorithms) receive a Ctx through which every load, store and atomic is
// charged simulated cycles.
package machine

import (
	"fmt"

	"hybrids/internal/metrics"
	"hybrids/internal/sim/engine"
	"hybrids/internal/sim/memsys"
	"hybrids/internal/sim/trace"
)

// Config parameterizes a simulated machine.
type Config struct {
	Mem memsys.Config
}

// Default returns the Table 1 machine configuration.
func Default() Config {
	return Config{Mem: memsys.DefaultConfig()}
}

// Machine is an assembled simulated system.
type Machine struct {
	Cfg Config
	Eng *engine.Engine
	Mem *memsys.MemSys

	// Metrics is the machine-wide instrumentation registry. The engine,
	// memory system, offload runtime and data structures all register
	// their counters and histograms here, so one snapshot/delta covers
	// every subsystem.
	Metrics *metrics.Registry

	// Attribution state (EnableAttribution): the registry histograms each
	// per-operation bucket sample is observed into at OpDone.
	attrHists [trace.NumBuckets]*metrics.Histogram
	attrTotal *metrics.Histogram
}

// New builds a machine from cfg with a fresh machine-wide metrics registry.
func New(cfg Config) *Machine {
	reg := metrics.NewRegistry()
	eng := engine.New()
	eng.AttachMetrics(reg)
	return &Machine{
		Cfg:     cfg,
		Eng:     eng,
		Mem:     memsys.NewWithMetrics(cfg.Mem, reg),
		Metrics: reg,
	}
}

// EnableTracing attaches a fresh event tracer retaining capPerTrack events
// per track to the engine and memory system, and returns it for export
// (trace.Tracer.WriteChromeJSON). Call before spawning actors so their
// contexts bind to the per-core tracks. Tracing is observationally
// transparent: it never advances virtual time.
func (m *Machine) EnableTracing(capPerTrack int) *trace.Tracer {
	t := trace.New(capPerTrack)
	m.Eng.SetTracer(t)
	m.Mem.SetTracer(t)
	return t
}

// EnableAttribution switches on per-operation latency attribution: every
// host core accumulates its charged cycles into trace.Bucket categories,
// and each Ctx.OpDone flushes the interval since the previous completion
// as one sample per bucket into the "attr/<bucket>" registry histograms
// (plus "attr/op_total" for the interval's total). Buckets of one sample
// sum exactly to the interval's elapsed cycles. Call before spawning
// actors.
func (m *Machine) EnableAttribution() {
	m.Mem.EnableAttr()
	for b := trace.Bucket(0); b < trace.NumBuckets; b++ {
		m.attrHists[b] = m.Metrics.Histogram(b.MetricName())
	}
	m.attrTotal = m.Metrics.Histogram(trace.AttrTotalMetric)
}

// coreKind distinguishes the two access paths.
type coreKind int

const (
	hostCore coreKind = iota
	nmpCore
)

// Ctx is a simulated hardware context: the handle algorithm code uses to
// touch simulated memory and consume simulated time. A Ctx is bound to one
// actor and must only be used from that actor's body.
type Ctx struct {
	M    *Machine
	A    *engine.Actor
	kind coreKind
	core int // host core index, or NMP partition index

	// Observability bindings, fixed at spawn: the core's tracer and trace
	// track (nil / -1 when tracing is off) and the core's attribution
	// accumulator (nil unless this is a host core and attribution is on).
	// All three are nil-safe in use, so disabled observability costs one
	// pointer comparison per emission site.
	tr    *trace.Tracer
	track int
	attr  *trace.CoreAttr
}

// SpawnHost starts a host hardware thread pinned to the given core running
// body. The paper's configuration runs one thread per core.
func (m *Machine) SpawnHost(core int, name string, body func(*Ctx)) *engine.Actor {
	if core < 0 || core >= m.Cfg.Mem.HostCores {
		panic(fmt.Sprintf("machine: host core %d out of range", core))
	}
	return m.Eng.Spawn(name, false, func(a *engine.Actor) {
		body(&Ctx{
			M: m, A: a, kind: hostCore, core: core,
			tr:    m.Mem.Tracer(),
			track: m.Mem.HostTrack(core),
			attr:  m.Mem.Attr(core),
		})
	})
}

// SpawnNMP starts the NMP core for partition p running body as a daemon
// actor: it serves offloaded operations until all host threads finish.
func (m *Machine) SpawnNMP(p int, body func(*Ctx)) *engine.Actor {
	if p < 0 || p >= m.Cfg.Mem.NMPVaults {
		panic(fmt.Sprintf("machine: NMP partition %d out of range", p))
	}
	return m.Eng.Spawn(fmt.Sprintf("nmp%d", p), true, func(a *engine.Actor) {
		body(&Ctx{
			M: m, A: a, kind: nmpCore, core: p,
			tr:    m.Mem.Tracer(),
			track: m.Mem.NMPTrack(p),
		})
	})
}

// Run dispatches the simulation to completion and returns total elapsed
// virtual cycles.
func (m *Machine) Run() uint64 {
	m.Eng.Run()
	return m.Eng.Now()
}

// Core returns the context's core (host) or partition (NMP) index.
func (c *Ctx) Core() int { return c.core }

// Now returns the context's current virtual time.
func (c *Ctx) Now() uint64 { return c.A.Now() }

// Step charges n simple instructions of compute, one cycle each, the cost
// algorithm code pays between memory operations. Host cores are wide
// out-of-order machines that hide most non-memory work; NMP cores are
// in-order single-cycle (§2). Either way one instruction is one cycle.
func (c *Ctx) Step(n uint64) { c.A.Advance(n) }

// OpDone marks one completed data structure operation. With attribution
// enabled (EnableAttribution), it flushes the calling host core's interval
// since its previous completion into the attribution histograms — each
// operation's bucket samples sum exactly to its interval's elapsed cycles
// — and, when tracing, marks the completion on the core's track.
func (c *Ctx) OpDone() {
	if c.attr != nil {
		sample, total := c.attr.Flush(c.A.Now())
		for b := trace.Bucket(0); b < trace.NumBuckets; b++ {
			c.M.attrHists[b].Observe(sample[b])
		}
		c.M.attrTotal.Observe(total)
	}
	c.tr.Instant(c.track, trace.KindOpDone, c.A.Now(), 0)
}

// AttrReset discards the calling core's partially accumulated attribution
// interval and restarts it at the current time. Workload drivers call it at
// a measured-phase boundary (after a warmup rendezvous) so setup cycles
// cannot leak into the first measured operation. No-op when attribution is
// off.
func (c *Ctx) AttrReset() {
	if c.attr != nil {
		c.attr.Flush(c.A.Now())
	}
}

// AttrAdd charges n cycles to attribution bucket b for the calling host
// core's current operation interval (no-op when attribution is off). The
// offload layers use it to classify time the memory system cannot see,
// such as cycles parked waiting for a combiner response.
func (c *Ctx) AttrAdd(b trace.Bucket, n uint64) { c.attr.Add(b, n) }

// AttrMove reclassifies up to n already-charged cycles from one bucket to
// another, clamped to what from holds (no-op when attribution is off).
func (c *Ctx) AttrMove(from, to trace.Bucket, n uint64) { c.attr.Move(from, to, n) }

// TraceSpan records a [start, start+dur) event of kind k on this core's
// trace track (no-op when tracing is off).
func (c *Ctx) TraceSpan(k trace.Kind, start, dur uint64, arg uint32) {
	c.tr.Span(c.track, k, start, dur, arg)
}

// latency is the modelled cost of this core's access to a, starting now.
func (c *Ctx) latency(a memsys.Addr, write bool) uint64 {
	if c.kind == hostCore {
		return c.M.Mem.HostAccess(c.core, a, write, c.A.Now())
	}
	return c.M.Mem.NMPAccess(c.core, a, write, c.A.Now())
}

// Read32 performs a timed 32-bit load.
func (c *Ctx) Read32(a memsys.Addr) uint32 {
	c.A.Advance(c.latency(a, false))
	return c.M.Mem.RAM.Load32(a)
}

// Write32 performs a timed 32-bit store.
func (c *Ctx) Write32(a memsys.Addr, v uint32) {
	c.A.Advance(c.latency(a, true))
	c.M.Mem.RAM.Store32(a, v)
}

// CAS32 performs a timed compare-and-swap on a 32-bit word. The latency is
// charged first and the data effect applies atomically at arrival time, so
// concurrent CASes linearize in virtual-time order. Only host cores issue
// atomics: the NMP-managed portion is single-threaded by construction.
func (c *Ctx) CAS32(a memsys.Addr, old, new uint32) bool {
	c.atomicAccess(a)
	if c.M.Mem.RAM.Load32(a) != old {
		return false
	}
	c.M.Mem.RAM.Store32(a, new)
	return true
}

// AtomicAdd32 atomically adds delta to the word at a, returning the new
// value.
func (c *Ctx) AtomicAdd32(a memsys.Addr, delta uint32) uint32 {
	c.atomicAccess(a)
	v := c.M.Mem.RAM.Load32(a) + delta
	c.M.Mem.RAM.Store32(a, v)
	return v
}

// MMIOWriteBurst writes vs to consecutive 32-bit scratchpad words starting
// at a in one write-combined burst (host cores only).
func (c *Ctx) MMIOWriteBurst(a memsys.Addr, vs []uint32) {
	c.mmioBurst(a, len(vs), true)
	for i, v := range vs {
		c.M.Mem.RAM.Store32(a+memsys.Addr(i)*4, v)
	}
}

// MMIOReadBurst reads len(out) consecutive 32-bit scratchpad words
// starting at a into out in one burst (host cores only).
func (c *Ctx) MMIOReadBurst(a memsys.Addr, out []uint32) {
	c.mmioBurst(a, len(out), false)
	for i := range out {
		out[i] = c.M.Mem.RAM.Load32(a + memsys.Addr(i)*4)
	}
}

// mmioBurst charges a host core's MMIO burst of n words at a, as offload
// wait, before its data effect.
func (c *Ctx) mmioBurst(a memsys.Addr, n int, write bool) {
	if c.kind != hostCore {
		panic("machine: MMIO bursts are a host-side path")
	}
	lat, k := c.M.Mem.MMIOBurst(a, n, write)
	c.tr.Span(c.track, k, c.A.Now(), lat, uint32(n))
	c.attr.Add(trace.BucketOffloadWait, lat)
	c.A.Advance(lat)
}

func (c *Ctx) atomicAccess(a memsys.Addr) {
	if c.kind != hostCore {
		panic("machine: NMP cores have no atomic path (single-threaded partitions)")
	}
	lat := c.M.Mem.HostAtomic(c.core, a, c.A.Now())
	c.A.Advance(lat)
}
