package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/store"
	"hybrids/internal/ycsb"
)

// Native experiments drive the real internal/core runtime — goroutine
// combiners over internal/cds stores on the host CPU — with the same YCSB
// workloads and the same result formatting as the simulated experiments.
// They measure wall-clock throughput, not virtual cycles: Cell.WallNanos
// replaces Cell.Cycles and MOpsPerSec is real operations per real second,
// so the absolute numbers depend on the machine running the benchmark (see
// docs/EXPERIMENTS.md for how to read them against the simulator's).

// NativeRegistry returns the native benchmark experiments in presentation
// order: one per registered store engine, resolved entirely through the
// engine registry. They share the Experiment shape with the simulated
// registry, so cmd/hybrids renders both through the same
// table/markdown/JSON emitters.
func NativeRegistry() []Experiment {
	var out []Experiment
	for _, e := range store.Engines() {
		e := e
		out = append(out, Experiment{
			ID:    "native-" + e.Name,
			Title: fmt.Sprintf("Native %s throughput, YCSB-C (wall clock)", e.Desc),
			Run: func(sc Scale, progress io.Writer) Result {
				return runNativeGrid(sc, e, progress)
			},
		})
	}
	for _, e := range store.Engines() {
		e := e
		out = append(out, Experiment{
			ID:    "native-suite-" + e.Name,
			Title: fmt.Sprintf("Native %s, YCSB core suite A-F (wall clock)", e.Desc),
			Run: func(sc Scale, progress io.Writer) Result {
				return runNativeSuite(sc, e, progress)
			},
		})
	}
	return out
}

// suiteWorkloads are the YCSB core workloads the native suite drives, in
// presentation order. The same letters select cmd/hybridsload -workload
// mixes, so the simulated-engine suite and the served suite measure
// identical op streams.
var suiteWorkloads = []string{"a", "b", "c", "d", "e", "f"}

// FindNative returns the native experiment with the given ID.
func FindNative(id string) (Experiment, bool) {
	for _, e := range NativeRegistry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// nativeVariant names one evaluated call discipline: blocking issues one
// Apply per op (§3.2); batch pipelines through a core.Batcher (§3.5) at
// the variant's window size, whatever it is —
// the discipline is selected by the flag, never inferred from the window
// value.
type nativeVariant struct {
	name   string
	window int
	batch  bool
}

// nativeVariants returns the call disciplines evaluated at this scale.
// With Scale.Window <= 1 the nonblocking variant degenerates to one call
// in flight — the same discipline as blocking — so it is dropped rather
// than re-measuring the blocking path under a misleading nonblocking
// label.
func nativeVariants(sc Scale) []nativeVariant {
	vs := []nativeVariant{{name: "blocking", window: 1}}
	if sc.Window > 1 {
		vs = append(vs, nativeVariant{
			name: fmt.Sprintf("nonblocking%d", sc.Window), window: sc.Window, batch: true,
		})
	}
	return vs
}

// nativeRequests converts one simulator op stream to the native request
// vocabulary. The kinds are already shared (kv.Kind = hds.Kind); only the
// key width changes.
func nativeRequests(ops []kv.Op) []hds.Request {
	out := make([]hds.Request, len(ops))
	for i, op := range ops {
		out[i] = hds.Request{Kind: op.Kind, Key: uint64(op.Key), Value: uint64(op.Value)}
	}
	return out
}

// runNativeOps executes one thread's slice under the variant's call
// discipline: the batch flag routes through a Batcher even at window 1,
// so a nonblocking variant can never silently fall back to the blocking
// path.
func runNativeOps(h *core.Hybrid, v nativeVariant, ops []hds.Request) {
	if v.batch {
		h.NewBatcher(v.window).Apply(ops, nil)
		return
	}
	for _, op := range ops {
		h.Apply(op)
	}
}

// runNativeOpsTimed is runNativeOps for the blocking discipline's measured
// phase: it appends each operation's wall-clock latency (nanoseconds) to
// lat. Per-op latency is only meaningful when one call is in flight, so
// the batch disciplines never use it.
func runNativeOpsTimed(h *core.Hybrid, ops []hds.Request, lat []uint64) []uint64 {
	for _, op := range ops {
		t0 := time.Now()
		h.Apply(op)
		lat = append(lat, uint64(time.Since(t0).Nanoseconds()))
	}
	return lat
}

// percentile returns the nearest-rank p-th percentile of sorted latencies.
func percentile(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// runNativeCell measures one grid point on the real runtime: build a fresh
// hybrid map, load it untimed, run per-thread warmup slices, rendezvous,
// and time the measured slices wall-clock. Blocking cells additionally
// record per-operation latencies and report p50/p95/p99. Registry
// snapshots are taken at the two rendezvous points, where every published
// future has been consumed (the runtime's quiescence requirement), so the
// counter deltas are exact. Cells run serially — unlike simulated cells
// they share the host CPU, so concurrent cells would perturb each other's
// timing.
func runNativeCell(sc Scale, e store.Engine, v nativeVariant, load []ycsb.Pair, streams [][]hds.Request) Cell {
	threads := len(streams)
	h := core.New(core.Config{
		Partitions: sc.Machine.Mem.NMPVaults,
		KeyMax:     uint64(sc.KeyMax),
		NewStore:   e.NewNative(store.Tuning{}),
	})
	defer h.Close()
	pairs := make([]core.KV, len(load))
	for i, p := range load {
		pairs[i] = core.KV{Key: uint64(p.Key), Value: uint64(p.Value)}
	}
	h.Build(pairs)
	reg := h.Metrics()

	var warm, done sync.WaitGroup
	start := make(chan struct{})
	warm.Add(threads)
	done.Add(threads)
	lats := make([][]uint64, threads)
	for th := 0; th < threads; th++ {
		th := th
		go func() {
			runNativeOps(h, v, streams[th][:sc.WarmupPerThread])
			warm.Done()
			<-start
			if v.batch {
				runNativeOps(h, v, streams[th][sc.WarmupPerThread:])
			} else {
				lats[th] = runNativeOpsTimed(h, streams[th][sc.WarmupPerThread:],
					make([]uint64, 0, sc.OpsPerThread))
			}
			done.Done()
		}()
	}
	warm.Wait()
	before := reg.Snapshot()
	t0 := time.Now()
	close(start)
	done.Wait()
	wall := time.Since(t0)
	after := reg.Snapshot()

	delta := map[string]uint64{}
	for name, dv := range after.Sub(before) {
		if dv != 0 {
			delta[name] = dv
		}
	}
	ops := threads * sc.OpsPerThread
	cell := Cell{
		Variant:    v.name,
		Threads:    threads,
		Ops:        ops,
		MOpsPerSec: float64(ops) / wall.Seconds() / 1e6,
		WallNanos:  uint64(wall.Nanoseconds()),
		Metrics:    delta,
	}
	if !v.batch {
		var all []uint64
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		cell.LatP50Nanos = percentile(all, 50)
		cell.LatP95Nanos = percentile(all, 95)
		cell.LatP99Nanos = percentile(all, 99)
	}
	return cell
}

// nativeGrid measures the full threads x variant grid for one engine.
// Every engine uses SkiplistRecords as the record count: the native
// runtime loads real memory (no simulated bulk build), so all engines
// share the same footprint rather than the simulator's per-engine sizes.
func nativeGrid(sc Scale, e store.Engine, progress io.Writer) map[string]map[int]Cell {
	gen := ycsb.New(ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed))
	load := gen.Load()
	out := map[string]map[int]Cell{}
	for _, v := range nativeVariants(sc) {
		out[v.name] = map[int]Cell{}
	}
	for _, th := range sc.ThreadCounts {
		raw := gen.Streams(th, sc.WarmupPerThread+sc.OpsPerThread)
		streams := make([][]hds.Request, th)
		for t := range raw {
			streams[t] = nativeRequests(raw[t])
		}
		for _, v := range nativeVariants(sc) {
			progressf(progress, "  %s %s threads=%d\n", e.Name, v.name, th)
			out[v.name][th] = runNativeCell(sc, e, v, load, streams)
		}
	}
	return out
}

// runNativeSuite measures one engine across the full YCSB core suite at
// this scale's top thread count, one cell per workload. All cells use the
// blocking discipline so every row carries per-op latency percentiles —
// the suite's point is mix sensitivity (SCAN cost, insert churn,
// read-latest skew), not call-discipline scaling, which the per-engine
// grid experiment already covers.
func runNativeSuite(sc Scale, e store.Engine, progress io.Writer) Result {
	threads := sc.ThreadCounts[len(sc.ThreadCounts)-1]
	v := nativeVariant{name: "blocking", window: 1}
	res := Result{
		ID:     "native-suite-" + e.Name,
		Title:  fmt.Sprintf("Native %s YCSB suite (wall clock, %d threads, %d partitions, scale %s)", e.Name, threads, sc.Machine.Mem.NMPVaults, sc.Name),
		Header: []string{"workload", "mix", "threads", "Mops/s", "p50/p95/p99 us"},
	}
	for _, w := range suiteWorkloads {
		cfg, err := ycsb.Workload(w, sc.SkiplistRecords, sc.KeyMax, sc.Seed)
		if err != nil {
			panic(err) // unreachable: suiteWorkloads holds only known letters
		}
		gen := ycsb.New(cfg)
		load := gen.Load()
		raw := gen.Streams(threads, sc.WarmupPerThread+sc.OpsPerThread)
		streams := make([][]hds.Request, threads)
		for t := range raw {
			streams[t] = nativeRequests(raw[t])
		}
		progressf(progress, "  %s suite workload=%s threads=%d\n", e.Name, w, threads)
		c := runNativeCell(sc, e, v, load, streams)
		c.Label = "ycsb-" + w
		res.Rows = append(res.Rows, []string{strings.ToUpper(w), ycsb.WorkloadDesc(w),
			fmt.Sprint(threads), f2(c.MOpsPerSec), fmtLatency(c, false)})
		res.Cells = append(res.Cells, c)
	}
	res.Notes = append(res.Notes,
		"one blocking-discipline cell per YCSB core workload at the top thread count; E's SCAN lengths are zipfian up to 100 pairs",
		"wall-clock on the host CPU (goroutine combiners), not simulated cycles; absolute numbers are machine-dependent")
	return res
}

// fmtLatency renders a blocking cell's percentile triple in microseconds,
// or "-" for batch cells (per-op latency is undefined with several calls
// in flight).
func fmtLatency(c Cell, batch bool) string {
	if batch {
		return "-"
	}
	return fmt.Sprintf("%.1f/%.1f/%.1f",
		float64(c.LatP50Nanos)/1e3, float64(c.LatP95Nanos)/1e3, float64(c.LatP99Nanos)/1e3)
}

func runNativeGrid(sc Scale, e store.Engine, progress io.Writer) Result {
	grid := nativeGrid(sc, e, progress)
	res := Result{
		ID:     "native-" + e.Name,
		Title:  fmt.Sprintf("Native %s (YCSB-C wall clock, %d partitions, scale %s)", e.Name, sc.Machine.Mem.NMPVaults, sc.Name),
		Header: []string{"implementation", "threads", "Mops/s", "p50/p95/p99 us", "vs blocking@same"},
	}
	variants := nativeVariants(sc)
	for _, v := range variants {
		for _, th := range sc.ThreadCounts {
			c := grid[v.name][th]
			rel := c.MOpsPerSec / grid["blocking"][th].MOpsPerSec
			res.Rows = append(res.Rows, []string{v.name, fmt.Sprint(th), f2(c.MOpsPerSec), fmtLatency(c, v.batch), f2(rel) + "x"})
			res.Cells = append(res.Cells, c)
		}
	}
	res.Notes = append(res.Notes,
		"wall-clock on the host CPU (goroutine combiners), not simulated cycles; absolute numbers are machine-dependent")
	if len(variants) > 1 {
		top := sc.ThreadCounts[len(sc.ThreadCounts)-1]
		nb := variants[1].name
		res.Notes = append(res.Notes,
			fmt.Sprintf("measured (%d threads): %s = %.2fx blocking", top, nb,
				grid[nb][top].MOpsPerSec/grid["blocking"][top].MOpsPerSec))
	} else {
		res.Notes = append(res.Notes,
			fmt.Sprintf("scale %s sets window %d: the nonblocking variant degenerates to the blocking discipline and is omitted", sc.Name, sc.Window))
	}
	return res
}
