package exp

import (
	"fmt"

	"hybrids/internal/dsim/btree"
	"hybrids/internal/dsim/fc"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/dsim/skiplist"
	"hybrids/internal/metrics"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
	"hybrids/internal/sim/trace"
	"hybrids/internal/store"
	"hybrids/internal/ycsb"
)

// variant names one evaluated implementation and how to put it on a fresh
// machine.
type variant struct {
	name string
	// build is everything open and Build read besides the machine and the
	// load set. Cells whose variants declare one build key, over equal load
	// sets on one machine configuration, leave byte-identical built
	// machines and form one image group (see runCells). The zero key (a
	// test's ad hoc variant) groups by *variant instead.
	build buildKey
	// open constructs the variant's empty structure on m. It must be cheap
	// and deterministic: the same allocations and stores on every fresh
	// machine, because a cell that restores another cell's built image
	// still runs open for the Go-side handles (heads, slots) it yields.
	open func(m *machine.Machine) structure
}

// structure is one variant constructed on one machine. runCell starts a
// store.SimHybrid's NMP daemons after Build (unstarted, it deadlocks) and
// drives it through ApplyBatch.
type structure interface {
	// Apply executes op on behalf of host thread, returning the read
	// value (for Read) and the operation's success flag.
	Apply(c *machine.Ctx, thread int, op kv.Op) (value uint32, ok bool)
	// Build bulk-loads the structure, untimed. It may touch only simulated
	// RAM and the machine's bump allocators, which is what lets a
	// memsys.Image stand in for it.
	Build(load []ycsb.Pair)
}

// buildKey names a built structure and the sizing and seed its open and
// build read. Fields they do not read stay zero, so they cannot split a
// group; the non-blocking window is never one of them.
type buildKey struct {
	structure string
	store.SimParams
}

// Cell is one measured grid point.
type Cell struct {
	Variant    string    `json:"variant"`
	Label      string    `json:"label,omitempty"` // experiment-specific axis (mix, window, ...)
	Threads    int       `json:"threads"`
	Cycles     uint64    `json:"cycles"` // measured-phase virtual cycles
	Ops        int       `json:"ops"`    // measured operations
	MOpsPerSec float64   `json:"throughput_mops"`
	ReadsPerOp float64   `json:"reads_per_op"` // DRAM block reads per operation
	Delays     fc.Delays `json:"-"`
	// Attr is the cell's per-operation latency attribution (nil unless the
	// cell was measured with Scale.Attr enabled).
	Attr *AttrSummary `json:"attr,omitempty"`
}

// runCell puts the variant on a fresh machine — bulk-building it from load,
// or through g when the cell belongs to an image group — and measures
// steady-state throughput and DRAM reads per operation: every thread runs
// its warmup slice, all threads rendezvous, and the measured slices run to
// completion. Reported cycles span rendezvous to last completion. The same
// load set and streams must be passed for every variant of a grid point so
// variants see identical work. The measured phase is a snapshot/delta over
// the machine-wide metrics registry, so memory-system counts, offload
// delay histograms and attribution histograms all come from one namespace.
//
// With sc.Attr, the cell's machine runs with attribution enabled and the
// returned Cell carries the measured phase's AttrSummary. With ts non-nil
// (the grid cell claimed by a TraceSpec), the machine runs with tracing
// enabled and the capture is written after the run. Both are
// observationally transparent, so enabling them cannot change Cycles, Ops
// or any other measurement.
//
// A failure inside the cell — a panic in a simulated body or a deadlock,
// both of which engine.Run raises here — is re-raised naming the cell, so
// one bad cell among a parallel grid's identifies itself.
func runCell(j cellJob, ts *TraceSpec, g *imageGroup) Cell {
	sc, v, load, streams := j.sc, j.v, j.load, j.streams
	threads := len(streams)
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("exp: cell %q (variant %s, %d threads, scale %s): %v", j.progress, v.name, threads, sc.Name, r))
		}
	}()
	m := machine.New(sc.Machine)
	var tracer *trace.Tracer
	if ts != nil {
		tracer = m.EnableTracing(ts.events())
	}
	if sc.Attr {
		m.EnableAttribution()
	}
	s := v.open(m)
	g.load(m, j.progress, func() { s.Build(load) })
	h, hybrid := s.(store.SimHybrid)
	if hybrid {
		h.Start()
	}
	// run applies one thread's ops, recording one Ctx.OpDone per completed
	// operation: a hybrid (blocking is window 1) records them inside
	// ApplyBatch, where they happen. OpDone delimits the per-operation
	// intervals of the latency-attribution report; it takes no virtual time.
	run := func(c *machine.Ctx, th int, ops []kv.Op) {
		if hybrid {
			h.ApplyBatch(c, th, ops)
			return
		}
		for _, op := range ops {
			s.Apply(c, th, op)
			c.OpDone()
		}
	}
	reg := m.Metrics

	var arrived, finished int
	var startCycle, endCycle uint64
	var start, end metrics.Snapshot
	for th := range threads {
		m.SpawnHost(th, fmt.Sprintf("driver%d", th), func(c *machine.Ctx) {
			run(c, th, streams[th][:sc.WarmupPerThread])
			arrived++
			if arrived == threads {
				startCycle = c.Now()
				start = reg.Snapshot()
			}
			for arrived < threads {
				c.Step(64)
			}
			// Restart the attribution interval at the measured-phase
			// boundary so warmup and rendezvous cycles cannot leak into
			// the first measured operation's sample.
			c.AttrReset()
			run(c, th, streams[th][sc.WarmupPerThread:])
			finished++
			endCycle = max(endCycle, c.Now())
			if finished == threads {
				end = reg.Snapshot()
			}
		})
	}
	m.Run()
	if ts != nil {
		ts.write(tracer)
	}

	ops := threads * sc.OpsPerThread
	cycles := endCycle - startCycle
	delta := end.Sub(start)
	dramReads := delta.Get(memsys.MetricHostDRAMReads) + delta.Get(memsys.MetricNMPDRAMReads)
	return Cell{
		Variant:    v.name,
		Threads:    threads,
		Cycles:     cycles,
		Ops:        ops,
		MOpsPerSec: float64(ops) / float64(cycles) * 2e9 / 1e6, // 2 GHz clock
		ReadsPerOp: float64(dramReads) / float64(ops),
		Delays:     fc.DelaysFrom(delta),
		Attr:       attrFrom(delta),
	}
}

// Skiplist variants evaluated in §5 (Figure 5, Figure 7).

func skiplistLockFree(sc Scale) *variant {
	key := buildKey{"lock-free", store.SimParams{SkiplistLevels: sc.SkiplistLevels, Seed: sc.Seed}}
	return &variant{name: "lock-free", build: key, open: func(m *machine.Machine) structure {
		return skiplist.NewLockFree(m, sc.SkiplistLevels, sc.Seed)
	}}
}

// skiplistNMPBased is prior work's NMP-based flat-combining skiplist
// [16, 44]: the hybrid skiplist's far end, with every level NMP-side.
func skiplistNMPBased(sc Scale) *variant {
	sc.SkiplistNMPLevels = sc.SkiplistLevels
	v := engineHybrid("skiplist", sc, 1)
	v.name = "NMP-based"
	return v
}

// engineHybrid builds the named registered engine's simulated hybrid as a
// grid variant: the one generic builder every HybriDS hybrid goes through,
// so experiments never construct a hybrid by concrete type. The window
// sizes only the scratchpad publication lists, which open lays out without
// writing, so blocking and every non-blocking window share one build.
// Window 1 is the blocking design and names the variant hybrid-blocking.
func engineHybrid(engine string, sc Scale, window int) *variant {
	e := store.MustEngine(engine)
	name := "hybrid-blocking"
	if window > 1 {
		name = fmt.Sprintf("hybrid-nonblocking%d", window)
	}
	built, p := sc.SimParams, sc.SimParams
	built.Window, p.Window = 0, window
	return &variant{name: name, build: buildKey{engine, built}, open: func(m *machine.Machine) structure {
		return e.NewSimHybrid(m, p)
	}}
}

func skiplistVariants(sc Scale) []*variant {
	return append([]*variant{skiplistLockFree(sc), skiplistNMPBased(sc)}, engineVariants("skiplist", sc)...)
}

// B+ tree variants evaluated in §5 (Figure 6, Figure 8).

func btreeHostOnly(sc Scale) *variant {
	key := buildKey{"host-only", store.SimParams{}}
	return &variant{name: "host-only", build: key, open: func(m *machine.Machine) structure {
		return btree.NewHostOnly(m)
	}}
}

func btreeVariants(sc Scale) []*variant {
	return append([]*variant{btreeHostOnly(sc)}, engineVariants("btree", sc)...)
}
