package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"hybrids/internal/exp"
	"hybrids/internal/metrics"
	"hybrids/internal/sim/engine"
	"hybrids/internal/sim/memsys"
	"hybrids/internal/sim/trace"
)

// Sim-grid sizing. One pass is a fixed amount of simulated work (every
// cell of the three grids), so passes repeat exactly in simulated time and
// host speed is the only free variable.
const (
	simOpsPerThread    = 320
	simWarmupPerThread = 80
	// simPassSeconds is the nominal host time of one pass on the 2-core
	// sandbox; -seconds / simPassSeconds fixes the number of timed passes.
	simPassSeconds = 3.5
	// simSoloPasses is how many single-thread passes the unloaded figure's
	// median is taken over.
	simSoloPasses = 3
	// simGCPercent is the GC pacing sim-grid runs under. Every cell builds
	// a fresh machine, so at the default 100 the heap peak is wherever a
	// collection happened to land: identical runs read 71-99 MB. At 25 the
	// heap stays within a quarter of the live set, peak RSS repeats within
	// +-2% and the passes' host time tightens with it, for ~12% throughput.
	simGCPercent = 25
)

// simScale is the bench scale: the Table 1 machine with structures far
// larger than the modelled 1 MB LLC, the host/NMP split of each following
// the paper's rule (the host portion is the largest that fits the LLC).
func simScale(seed uint64, shrink int) exp.Scale {
	sc := exp.SmallScale()
	sc.Name = "bench"
	sc.Machine.Mem.HostMemSize = 256 << 20
	sc.Machine.Mem.NMPMemSize = 256 << 20
	sc.SkiplistRecords = 1 << 18
	sc.SkiplistLevels = 18
	sc.SkiplistNMPLevels = 5 // host top 13 levels ~ 2^13 nodes ~ LLC
	sc.BTreeRecords = 1 << 19
	sc.BTreeNMPLevels = 2 // 7 levels at fill 8; host top 5 ~ 150 KB (top 6 would be 1.2 MB)
	sc.BSkiplistRecords = 1 << 18
	sc.BSkiplistLevels = 6
	sc.BSkiplistNMPLevels = 2
	sc.KeyMax = 1 << 24
	sc.OpsPerThread = simOpsPerThread
	sc.WarmupPerThread = simWarmupPerThread
	sc.ThreadCounts = []int{1, 4, 8}
	sc.MaxThreads = 8
	sc.Parallel = 1
	sc.Seed = seed
	if shrink > 1 {
		tiny := exp.TinyScale()
		tiny.Name, tiny.Seed, tiny.Parallel = sc.Name, seed, 1
		tiny.OpsPerThread = max(simOpsPerThread/shrink, 8)
		tiny.WarmupPerThread = max(simWarmupPerThread/shrink, 2)
		return tiny
	}
	return sc
}

// gridPass is one grid's share of a pass.
type gridPass struct {
	hostSeconds float64
	cycles      uint64  // Σ cell measured-phase cycles
	ops         int     // Σ cell measured ops
	allOps      int     // warm-up + measured
	dramReads   float64 // Σ cell DRAM block reads
	attr        exp.AttrSummary
}

// simPass is one run of every grid at a scale.
type simPass struct {
	grids       []gridPass
	hostSeconds float64
	cycles      uint64
	ops, allOps int
}

func (p simPass) cyclesPerOp() float64 { return float64(p.cycles) / float64(p.ops) }

// runSimPass runs the three grids once through exp.Find(id).Run. With
// sc.Attr it also checks the bucket-sum invariant per cell, reporting
// violations through fail.
func runSimPass(sc exp.Scale, fail func(format string, args ...any)) simPass {
	var p simPass
	for _, id := range simGrids {
		e, ok := exp.Find(id)
		if !ok {
			fail("experiment %s is not registered", id)
			continue
		}
		t0 := time.Now()
		res := e.Run(sc, nil)
		g := gridPass{hostSeconds: time.Since(t0).Seconds()}
		for _, c := range res.Cells {
			g.cycles += c.Cycles
			g.ops += c.Ops
			g.allOps += c.Ops + c.Threads*sc.WarmupPerThread
			g.dramReads += c.ReadsPerOp * float64(c.Ops)
			if c.Attr == nil {
				if sc.Attr {
					fail("%s %s threads=%d: no attribution recorded", id, c.Variant, c.Threads)
				}
				continue
			}
			var sum uint64
			for b := trace.Bucket(0); b < trace.NumBuckets; b++ {
				sum += c.Attr.BucketSum(b)
			}
			if sum != c.Attr.Total {
				fail("%s %s threads=%d: attribution buckets sum to %d, interval total is %d",
					id, c.Variant, c.Threads, sum, c.Attr.Total)
			}
			addAttr(&g.attr, c.Attr)
		}
		p.grids = append(p.grids, g)
		p.hostSeconds += g.hostSeconds
		p.cycles += g.cycles
		p.ops += g.ops
		p.allOps += g.allOps
	}
	return p
}

// addAttr accumulates src into dst.
func addAttr(dst, src *exp.AttrSummary) {
	dst.Samples += src.Samples
	dst.HostCache += src.HostCache
	dst.Coherence += src.Coherence
	dst.DRAM += src.DRAM
	dst.OffloadWait += src.OffloadWait
	dst.NMPSerial += src.NMPSerial
	dst.HostCompute += src.HostCompute
	dst.Total += src.Total
}

// soloScale restricts sc to its single-thread cells.
func soloScale(sc exp.Scale) exp.Scale {
	sc.ThreadCounts = []int{1}
	sc.MaxThreads = 1
	return sc
}

// simPasses is the number of timed passes -seconds buys.
func simPasses(seconds int) int {
	return max(2, int(float64(seconds)/simPassSeconds+0.5))
}

// setUpPass is sim-grid's set-up: what a simulator user pays before the
// first result appears — generating the workloads and bulk-building each
// structure — measured as a pass over the single-thread cells at quarter
// ops.
func setUpPass(sc exp.Scale, fail func(format string, args ...any)) simPass {
	quarter := soloScale(sc)
	quarter.OpsPerThread = max(sc.OpsPerThread/4, 1)
	quarter.WarmupPerThread = max(sc.WarmupPerThread/4, 1)
	return runSimPass(quarter, fail)
}

// setUpSim is sim-grid's `-setup-only`.
func setUpSim(o options) error {
	debug.SetGCPercent(simGCPercent)
	var err error
	setUpPass(simScale(o.seed, o.shrink), func(format string, args ...any) {
		err = fmt.Errorf(format, args...)
	})
	return err
}

// runSim measures sim-grid. Untraced: the set-up pass, then the timed
// passes. Traced: one plain and one attributed pass, the single-thread
// passes of the unloaded figure, and the engine and memsys rungs.
func runSim(rep *report, o options) {
	defer debug.SetGCPercent(debug.SetGCPercent(simGCPercent))
	sc := simScale(o.seed, o.shrink)
	fail := rep.failf

	rep.Attempted += int64(setUpPass(sc, fail).allOps)
	setup := time.Since(procStart).Seconds()

	if o.trace {
		runSimTraced(rep, sc, o)
		return
	}

	passes := simPasses(o.seconds)
	rep.Segments = passes
	var thr, cpu []float64
	var first simPass
	for i := 0; i < passes; i++ {
		c0 := cpuSeconds()
		p := runSimPass(sc, fail)
		cpu = append(cpu, (cpuSeconds()-c0)/float64(p.allOps)*1e6)
		thr = append(thr, float64(p.allOps)/p.hostSeconds)
		rep.Attempted += int64(p.allOps)
		if i == 0 {
			first = p
		} else if p.cycles != first.cycles || p.ops != first.ops {
			fail("pass %d simulated %d cycles over %d ops, pass 0 simulated %d over %d: simulated time must repeat exactly",
				i, p.cycles, p.ops, first.cycles, first.ops)
		}
	}

	rss, err := peakRSSMB()
	if err != nil {
		fail("peak RSS: %v", err)
	}
	setups, err := setupSamples(o, setup)
	if err != nil {
		fail("%v", err)
	}
	rep.set("setup_s", metric{Value: median(setups), Unit: "s", Segments: setups})
	rep.set("throughput_ops_s", metric{Value: median(thr), Unit: "ops/s", Segments: thr})
	rep.set("cpu_us_per_op", metric{Value: median(cpu), Unit: "us", Segments: cpu})
	rep.set("peak_rss_mb", metric{Value: rss, Unit: "MB"})
	// Simulated time: every pass above read the same, so two commits
	// compare exactly and any difference is a modelled-design change.
	rep.set("sim_cycles_per_op", metric{Value: first.cyclesPerOp(), Unit: "cycles", Samples: first.ops})
}

// runSimTraced produces sim-grid's per-layer metrics.
func runSimTraced(rep *report, sc exp.Scale, o options) {
	fail := rep.failf
	plain := runSimPass(sc, fail)
	attr := sc
	attr.Attr = true
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fail("trace directory: %v", err)
	} else {
		attr.Trace = &exp.TraceSpec{Path: filepath.Join(o.outDir, "trace-sim-grid.json"), Events: 1 << 12}
	}
	traced := runSimPass(attr, fail)
	if err := attr.Trace.Err(); err != nil {
		fail("simulator trace: %v", err)
	}
	rep.Attempted += int64(plain.allOps + traced.allOps)
	rep.Segments = 1
	if plain.cycles != traced.cycles {
		fail("attribution changed simulated time: %d cycles plain, %d attributed", plain.cycles, traced.cycles)
	}

	rep.set("sim.cycles_per_op", metric{Value: plain.cyclesPerOp(), Unit: "cycles", Samples: plain.ops})
	var total exp.AttrSummary
	for i, id := range simGrids {
		g := plain.grids[i]
		rep.set("exp."+id+".host_s", metric{Value: g.hostSeconds, Unit: "s"})
		rep.set("exp."+id+".cycles_per_op", metric{Value: float64(g.cycles) / float64(g.ops), Unit: "cycles", Samples: g.ops})
		rep.set("exp."+id+".dram_reads_per_op", metric{Value: g.dramReads / float64(g.ops), Unit: "count", Samples: g.ops})
		addAttr(&total, &traced.grids[i].attr)
	}
	for b := trace.Bucket(0); b < trace.NumBuckets; b++ {
		rep.set("dsim.attr."+attrBuckets[b]+"_cycles_per_op",
			metric{Value: total.PerOp(b), Unit: "cycles", Samples: int(total.Samples)})
	}
	rep.set("trace.overhead_ratio", metric{
		Value: (float64(plain.allOps) / plain.hostSeconds) / (float64(traced.allOps) / traced.hostSeconds),
		Unit:  "ratio",
	})

	// Unloaded: one simulated host thread, so one simulated operation in
	// flight at a time — the host time a user waits per simulated op of
	// the single-thread cells, their structure builds included.
	// Like the native unloaded phase it runs on one processor (see
	// runUnloaded): the engine hands a single permit from actor to actor,
	// and a second P only adds thread wake-ups between them.
	restore := runtime.GOMAXPROCS(1)
	var solo []float64
	for i := 0; i < simSoloPasses; i++ {
		p := runSimPass(soloScale(sc), fail)
		solo = append(solo, p.hostSeconds/float64(p.allOps)*1e6)
		rep.Attempted += int64(p.allOps)
	}
	runtime.GOMAXPROCS(restore)

	rep.set("lat_unloaded_us", metric{Value: median(solo), Unit: "us", Segments: solo})

	n := 2_000_000 / o.shrink
	rep.set("sim.engine.dispatch_ns", metric{Value: engineDispatchNs(n), Unit: "ns", Samples: n})
	rep.set("sim.engine.block_unblock_ns", metric{Value: engineBlockUnblockNs(n / 4), Unit: "ns", Samples: n / 4})
	host, nmp := memsysAccessNs(sc.Machine.Mem, n)
	rep.set("sim.memsys.host_access_ns", metric{Value: host, Unit: "ns", Samples: n})
	rep.set("sim.memsys.nmp_access_ns", metric{Value: nmp, Unit: "ns", Samples: n})
}

// engineDispatchNs is host ns per dispatched event with eight actors of
// mutually prime step sizes, so nearly every Advance re-sorts the event
// heap and hands off the resume permit.
func engineDispatchNs(events int) float64 {
	const actors = 8
	reg := metrics.NewRegistry()
	e := engine.New()
	e.AttachMetrics(reg)
	per := events/actors + 1
	for i := 0; i < actors; i++ {
		step := uint64(2*i + 1)
		e.Spawn(fmt.Sprintf("a%d", i), false, func(a *engine.Actor) {
			for j := 0; j < per; j++ {
				a.Advance(step)
			}
		})
	}
	t0 := time.Now()
	e.Run()
	elapsed := time.Since(t0)
	c, _ := reg.LookupCounter("engine/dispatches")
	return float64(elapsed.Nanoseconds()) / float64(max(c.Value(), 1))
}

// engineBlockUnblockNs is host ns per doorbell round trip: a client that
// blocks awaiting service and a server that wakes it, alternating (the
// pattern the flat-combining layer leans on).
func engineBlockUnblockNs(rounds int) float64 {
	e := engine.New()
	var client *engine.Actor
	client = e.Spawn("client", false, func(a *engine.Actor) {
		for i := 0; i < rounds; i++ {
			a.Block()
		}
	})
	e.Spawn("server", false, func(a *engine.Actor) {
		for i := 0; i < rounds; i++ {
			a.Advance(1)
			a.Unblock(client, 1)
		}
	})
	t0 := time.Now()
	e.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds)
}

// memsysAccessNs is host ns per modelled access on a fixed pseudo-random
// address trace: host cores through TLB, L1, directory, LLC and vault
// timing over a 32 MiB working set, and NMP cores through their row
// buffers over their own partitions.
func memsysAccessNs(cfg memsys.Config, n int) (host, nmp float64) {
	m := memsys.New(cfg)
	const span = 32 << 20
	var x uint32 = 12345
	var now uint64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		a := memsys.Addr(x%span) &^ 3
		now += m.HostAccess(i%cfg.HostCores, a, x&7 == 0, now)
	}
	host = float64(time.Since(t0).Nanoseconds()) / float64(n)

	partSize := cfg.NMPMemSize / memsys.Addr(cfg.NMPVaults)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		p := i % cfg.NMPVaults
		a := cfg.HostMemSize + memsys.Addr(p)*partSize + memsys.Addr(x%uint32(partSize))&^3
		now += m.NMPAccess(p, a, x&7 == 0, now)
	}
	nmp = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return host, nmp
}
