// Command hybridsload is a load generator for hybridsd: it replays
// deterministic YCSB operation streams (the same internal/ycsb generator
// the benchmarks use) over pipelined protocol connections and reports
// throughput and client-observed latency percentiles through the
// internal/exp table formatters.
//
// Usage:
//
//	hybridsload [-addr 127.0.0.1:7070] [-conns 4] [-depth 16]
//	            [-workload a,b,c,d,e,f] [-ops 20000] [-records 16384]
//	            [-keymax 1048576] [-read 100 -insert 0 -remove 0]
//	            [-seed 1] [-warmup 2048] [-max-allocs-per-op -1]
//	            [-rate 0 -ramp 2s -slo 0]
//	            [-noload] [-markdown|-json] [-stats]
//	            [-scrape http://127.0.0.1:7071]
//
// -workload selects YCSB core workloads by letter (comma-separated; each
// runs as its own measured phase and report row). Without it the legacy
// flags apply: YCSB-C, or the uniform read-insert-remove mix when
// -insert/-remove are set. Workload E drives SCAN requests end-to-end;
// the pair payloads are decoded into a per-connection reusable buffer so
// the hot path stays allocation-free.
//
// Two load modes:
//
//   - Closed loop (default): each connection keeps -depth requests in
//     flight — every response received triggers the next send, so
//     concurrency is conns x depth. Latency is measured send-to-receive.
//     A closed loop coordinates with the server: when the server stalls,
//     the client stops sending, so the operations that would have queued
//     behind the stall are never measured (coordinated omission).
//
//   - Open loop (-rate R): operations are paced by a precomputed arrival
//     schedule targeting R ops/s across all connections, ramping up along
//     a TCP-CUBIC-shaped curve over -ramp. Latency is measured from each
//     operation's *scheduled* send time, so queueing delay — including
//     delay caused by the client falling behind schedule — is visible.
//     -slo D counts responses slower than D (load/slo_violations), and
//     the report carries load/target_rate and load/achieved_rate.
//
// The measured phase is steady-state: every connection is dialed and
// runs -warmup untimed operations first (filling pools and scratch
// buffers on both sides), then all connections start the timed replay
// together behind a gate. Client-process heap allocations across the
// timed phase are counted (load/allocs) and averaged per operation;
// -max-allocs-per-op N exits nonzero when the integer average exceeds N,
// making the zero-allocation serving path a CI-checkable regression
// gate.
//
// -scrape URL points at a hybridsd admin plane (-admin-addr): each
// workload's measured phase is bracketed by two /metrics.json scrapes
// and the server/* counter deltas are merged into its report row,
// pairing client-observed numbers with server-side truth. Reports always
// carry a meta block with run provenance (Go version, platform,
// GOMAXPROCS, VCS revision when built from a checkout).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/exp"
	"hybrids/internal/server"
	"hybrids/internal/ycsb"
)

// connStats is one connection's tally: per-status response counts, SCAN
// pair and SLO-violation totals, and the latency of every measured
// operation.
type connStats struct {
	ok, miss, rejected, bad uint64
	scanPairs               uint64
	sloViolations           uint64
	lats                    []time.Duration
	err                     error
}

// tally records one measured response.
func (st *connStats) tally(op kv.Op, resp server.Response) {
	switch resp.Status {
	case server.StatusOK:
		st.ok++
	case server.StatusMiss:
		st.miss++
	case server.StatusRejected:
		st.rejected++
	default:
		st.bad++
	}
	if op.Kind == kv.Scan {
		st.scanPairs += uint64(len(resp.Pairs))
	}
}

// opCode maps a YCSB op kind to its protocol operation code.
func opCode(k kv.Kind) uint8 {
	switch k {
	case kv.Read:
		return server.OpGet
	case kv.Update:
		return server.OpUpdate
	case kv.Insert:
		return server.OpPut
	case kv.Scan:
		return server.OpScan
	default:
		return server.OpDelete
	}
}

// toRequest maps one YCSB op to its protocol request (for SCAN, Op.Value
// carries the pair limit).
func toRequest(op kv.Op) server.Request {
	return server.Request{Op: opCode(op.Kind), Key: uint64(op.Key), Value: uint64(op.Value)}
}

// wire is one raw protocol connection with caller-owned decode buffers.
// Unlike server.Client it has no sent-op FIFO — the replay knows its op
// stream, so responses are decoded against the stream directly — and its
// SCAN pair buffer is reused across responses (server.ReadResponseReuse),
// which keeps the measured hot path allocation-free even on scan-heavy
// workloads. The buffer fields split cleanly between a sender (bw,
// reqBuf) and a receiver (br, scratch, pairs), so the open-loop mode can
// run both on one wire concurrently.
type wire struct {
	nc      net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	reqBuf  []byte
	scratch []byte
	pairs   []server.Pair
}

// dialWire connects to the server and pre-sizes the decode buffers (the
// pair buffer covers the YCSB-E scan-length cap, so steady state never
// grows it).
func dialWire(addr string) (*wire, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wire{
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 32<<10),
		bw:      bufio.NewWriterSize(nc, 32<<10),
		scratch: make([]byte, 0, 4<<10),
		pairs:   make([]server.Pair, 0, 256),
	}, nil
}

func (w *wire) close() error { return w.nc.Close() }

// send encodes op into the write buffer (the caller flushes).
func (w *wire) send(op kv.Op) error {
	w.reqBuf = server.AppendRequest(w.reqBuf[:0], toRequest(op))
	_, err := w.bw.Write(w.reqBuf)
	return err
}

// recv reads op's response, reusing the wire's scratch and pair buffers.
// The returned Response's Pairs alias the wire's buffer and are only
// valid until the next recv.
func (w *wire) recv(op kv.Op) (server.Response, error) {
	resp, scratch, pairs, err := server.ReadResponseReuse(w.br, opCode(op.Kind), w.scratch, w.pairs)
	w.scratch, w.pairs = scratch, pairs
	return resp, err
}

// replay runs ops through w as a closed loop with depth requests in
// flight. When st is nil the phase is untimed warmup (statuses and
// latencies are discarded); otherwise send times come from sendTimes
// (pre-sized by the caller so the measured phase does not grow it).
func replay(w *wire, ops []kv.Op, depth int, sendTimes []time.Time, st *connStats) error {
	if depth > len(ops) {
		depth = len(ops)
	}
	next := 0
	for ; next < depth; next++ {
		if st != nil {
			sendTimes = append(sendTimes, time.Now())
		}
		if err := w.send(ops[next]); err != nil {
			return err
		}
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	for done := 0; done < len(ops); done++ {
		resp, err := w.recv(ops[done])
		if err != nil {
			return err
		}
		if st != nil {
			st.lats = append(st.lats, time.Since(sendTimes[done]))
			st.tally(ops[done], resp)
		}
		if next < len(ops) {
			if st != nil {
				sendTimes = append(sendTimes, time.Now())
			}
			if err := w.send(ops[next]); err != nil {
				return err
			}
			if err := w.bw.Flush(); err != nil {
				return err
			}
			next++
		}
	}
	return nil
}

// runConn owns one closed-loop connection's lifecycle: untimed warmup,
// buffer pre-sizing, then — once the start gate opens — the timed replay.
func runConn(w *wire, warm, main []kv.Op, depth int, warmed *sync.WaitGroup, start <-chan struct{}, st *connStats) {
	defer w.close()
	err := replay(w, warm, depth, nil, nil)
	// Pre-size the measured phase's buffers before the gate so they are
	// not counted as steady-state allocations.
	sendTimes := make([]time.Time, 0, len(main))
	st.lats = make([]time.Duration, 0, len(main))
	warmed.Done()
	if err != nil {
		st.err = err
		return
	}
	<-start
	if err := replay(w, main, depth, sendTimes, st); err != nil {
		st.err = err
	}
}

// runOpenConn owns one open-loop connection's lifecycle. After a
// closed-loop warmup, a sender goroutine paces ops by the precomputed
// schedule (offsets from the gate's open) while this goroutine receives;
// each response's latency is measured from the op's *scheduled* send
// time, so time spent queued — on the server, in the kernel, or because
// the sender itself fell behind schedule — is charged to the operation
// rather than silently omitted.
func runOpenConn(w *wire, warm, main []kv.Op, depth int, sched []time.Duration, slo time.Duration, warmed *sync.WaitGroup, start <-chan struct{}, st *connStats) {
	defer w.close()
	err := replay(w, warm, depth, nil, nil)
	st.lats = make([]time.Duration, 0, len(main))
	sendErr := make(chan error, 1)
	warmed.Done()
	if err != nil {
		st.err = err
		return
	}
	<-start
	t0 := time.Now()
	go func() {
		for i := range main {
			if d := time.Until(t0.Add(sched[i])); d > 0 {
				time.Sleep(d)
			}
			if err := w.send(main[i]); err != nil {
				sendErr <- err
				w.nc.Close()
				return
			}
			if err := w.bw.Flush(); err != nil {
				sendErr <- err
				w.nc.Close()
				return
			}
		}
	}()
	for i := range main {
		resp, err := w.recv(main[i])
		if err != nil {
			// A send failure surfaces here as a read error on the closed
			// connection; report the root cause.
			select {
			case serr := <-sendErr:
				err = serr
			default:
			}
			st.err = err
			return
		}
		lat := time.Since(t0) - sched[i]
		if lat < 0 {
			lat = 0
		}
		st.lats = append(st.lats, lat)
		if slo > 0 && lat > slo {
			st.sloViolations++
		}
		st.tally(main[i], resp)
	}
}

// cubicSchedule returns the scheduled send offset of each of n operations
// under a target arrival rate (ops/s) with a TCP-CUBIC-shaped ramp: over
// the ramp window the instantaneous rate follows R·(1 − β·((K−t)/K)³)
// (β = 0.3, K = ramp) — CUBIC's concave approach to its plateau — so a
// cold server sees ~70% of the target immediately and the full rate only
// at the end of the ramp. With ramp 0 the schedule is flat at R.
func cubicSchedule(n int, rate float64, ramp time.Duration) []time.Duration {
	const beta = 0.3
	k := ramp.Seconds()
	sched := make([]time.Duration, n)
	t := 0.0
	for i := 0; i < n; i++ {
		sched[i] = time.Duration(t * float64(time.Second))
		r := rate
		if k > 0 && t < k {
			f := (k - t) / k
			r *= 1 - beta*f*f*f
		}
		t += 1 / r
	}
	return sched
}

// validateKeyMax rejects -keymax values the 32-bit workload generator
// cannot represent or ycsb.New would panic on, so a misconfigured run
// exits with a clear message instead of silently truncating (values of
// 2³² and above used to wrap modulo 2³² — 1<<32 became 0) or panicking
// deep inside the generator.
func validateKeyMax(v uint64, records int) error {
	if v == 0 || v > math.MaxUint32 {
		return fmt.Errorf("-keymax %d does not fit the 32-bit key space (want a power of two in [4*records, 2^32))", v)
	}
	if v&(v-1) != 0 {
		return fmt.Errorf("-keymax %d is not a power of two", v)
	}
	if v < 4*uint64(records) {
		return fmt.Errorf("-keymax %d leaves no insert headroom for %d records (want >= %d)", v, records, 4*records)
	}
	return nil
}

// validateSizes rejects non-positive -conns, -depth, -ops and -records,
// hybridsd's "must be positive" rule, and a negative -warmup: zero
// connections or operations used to divide by zero in the allocs/op
// average, a negative -conns panicked inside the stream generator, -depth
// 0 hung the replay waiting for a response to a request it never sent,
// -records 0 preloaded nothing and drew keys over zero items, and a
// negative -warmup was quietly run as 0.
func validateSizes(conns, depth, ops, records, warmup int) error {
	if conns <= 0 || depth <= 0 || ops <= 0 || records <= 0 {
		return fmt.Errorf("-conns, -depth, -ops and -records must be positive (got %d, %d, %d, %d)", conns, depth, ops, records)
	}
	if warmup < 0 {
		return fmt.Errorf("-warmup %d must not be negative", warmup)
	}
	return nil
}

// mergeServerDeltas merges the measured phase's server/* counter deltas
// (post − pre) into metrics. If any counter regressed (post < pre: the
// server restarted between the two scrapes, resetting its registry) the
// deltas are meaningless, nothing is merged at all, and false is
// returned so the caller can warn instead of emitting wrapped-around
// garbage into the report.
func mergeServerDeltas(metrics, pre, post map[string]uint64) bool {
	deltas := map[string]uint64{}
	for name, v := range post {
		if !strings.HasPrefix(name, "server/") {
			continue
		}
		p := pre[name]
		if v < p {
			return false
		}
		deltas[name] = v - p
	}
	for name, d := range deltas {
		metrics[name] = d
	}
	return true
}

// workloadSpec is one measured workload: a report row and exp.Cell.
type workloadSpec struct {
	key   string // the -workload letter, or "c"/"mix" under the legacy flags
	title string
	cfg   ycsb.Config
}

// parseWorkloads resolves the -workload flag (comma-separated YCSB core
// letters) or, when empty, the legacy single-workload flags.
func parseWorkloads(list string, records int, keyMax uint32, read, insert, remove int, seed uint64) ([]workloadSpec, error) {
	if list == "" {
		if insert > 0 || remove > 0 {
			return []workloadSpec{{
				key:   "mix",
				title: fmt.Sprintf("uniform mix %d-%d-%d (read-insert-remove)", read, insert, remove),
				cfg:   ycsb.Mix(records, keyMax, read, insert, remove, seed),
			}}, nil
		}
		return []workloadSpec{{key: "c", title: ycsb.WorkloadDesc("c"), cfg: ycsb.YCSBC(records, keyMax, seed)}}, nil
	}
	var out []workloadSpec
	for _, w := range strings.Split(list, ",") {
		w = strings.TrimSpace(strings.ToLower(w))
		cfg, err := ycsb.Workload(w, records, keyMax, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, workloadSpec{key: w, title: ycsb.WorkloadDesc(w), cfg: cfg})
	}
	return out, nil
}

// preload PUTs the workload's load-phase pairs through one pipelined
// connection.
func preload(addr string, pairs []ycsb.Pair) error {
	reqs := make([]server.Request, len(pairs))
	for i, p := range pairs {
		reqs[i] = server.Request{Op: server.OpPut, Key: uint64(p.Key), Value: uint64(p.Value)}
	}
	return pipeline(addr, reqs)
}

// pipeline runs reqs through one fresh connection, discarding the
// responses.
func pipeline(addr string, reqs []server.Request) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Pipeline(reqs)
	return err
}

// cleanupInserts deletes the keys a workload's streams minted (Insert
// ops), restoring the server to its preloaded state. The generator mints
// fresh keys deterministically, so without the cleanup a later workload —
// in this process or a later -noload invocation against the same server —
// would re-insert the same keys and count spurious misses.
func cleanupInserts(addr string, streams [][]kv.Op) error {
	var reqs []server.Request
	for _, ops := range streams {
		for _, op := range ops {
			if op.Kind == kv.Insert {
				reqs = append(reqs, server.Request{Op: server.OpDelete, Key: uint64(op.Key)})
			}
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	return pipeline(addr, reqs)
}

// scrapeCounters pulls the server's counter snapshot from a hybridsd
// admin plane (GET <base>/metrics.json) so a load report can carry
// server-side truth next to the client-observed numbers.
func scrapeCounters(base string) (map[string]uint64, error) {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	resp, err := http.Get(strings.TrimSuffix(base, "/") + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics.json: %s", resp.Status)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Counters, nil
}

// provenance collects the run's build and runtime facts for the report's
// meta block: Go version, platform, GOMAXPROCS, and — when the binary
// carries build info — the VCS revision, commit time, and dirty flag.
func provenance() map[string]string {
	meta := map[string]string{
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"commit":     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				meta["commit"] = s.Value
			case "vcs.time":
				meta["commit_time"] = s.Value
			case "vcs.modified":
				meta["dirty"] = s.Value
			}
		}
	}
	return meta
}

// pctl returns the p'th percentile of sorted latencies.
func pctl(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// loadFlags is the parsed flag set one workload run needs.
type loadFlags struct {
	addr   string
	conns  int
	depth  int
	ops    int
	warmup int
	rate   float64
	ramp   time.Duration
	slo    time.Duration
	scrape string
}

// workloadResult is one workload's measured outcome.
type workloadResult struct {
	cell                    exp.Cell
	ok, miss, rejected, bad uint64
	allocs, allocsPerOp     uint64
	wall                    time.Duration
	mops, achieved          float64
	p50, p95, p99, max      time.Duration
	scrapeDropped           bool
}

// runWorkload measures one workload: dial, warm up, gate, replay, and
// aggregate. streams is the per-connection op sequence (warmup prefix
// included).
func runWorkload(lf loadFlags, spec workloadSpec, streams [][]kv.Op) (workloadResult, error) {
	wires := make([]*wire, lf.conns)
	for i := range wires {
		w, err := dialWire(lf.addr)
		if err != nil {
			return workloadResult{}, fmt.Errorf("dial conn %d: %w", i, err)
		}
		wires[i] = w
	}
	var sched []time.Duration
	if lf.rate > 0 {
		// Per-connection schedule at an equal share of the target rate;
		// the schedule is identical across connections, so compute it once.
		sched = cubicSchedule(lf.ops, lf.rate/float64(lf.conns), lf.ramp)
	}

	sts := make([]connStats, lf.conns)
	var warmed, wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < lf.conns; i++ {
		warmed.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			warm, main := streams[i][:lf.warmup], streams[i][lf.warmup:]
			if lf.rate > 0 {
				runOpenConn(wires[i], warm, main, lf.depth, sched, lf.slo, &warmed, start, &sts[i])
			} else {
				runConn(wires[i], warm, main, lf.depth, &warmed, start, &sts[i])
			}
		}(i)
	}
	warmed.Wait()

	// Scrapes stay outside the ReadMemStats bracket: the HTTP client's
	// allocations must not pollute the allocs/op gate.
	var pre map[string]uint64
	if lf.scrape != "" {
		var err error
		if pre, err = scrapeCounters(lf.scrape); err != nil {
			return workloadResult{}, fmt.Errorf("scrape: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	allocs := m1.Mallocs - m0.Mallocs
	var post map[string]uint64
	if lf.scrape != "" {
		var err error
		if post, err = scrapeCounters(lf.scrape); err != nil {
			return workloadResult{}, fmt.Errorf("scrape: %w", err)
		}
	}

	var all []time.Duration
	var r workloadResult
	var sloViol, scanPairs uint64
	for i := range sts {
		if sts[i].err != nil {
			return workloadResult{}, fmt.Errorf("conn %d: %w", i, sts[i].err)
		}
		all = append(all, sts[i].lats...)
		r.ok += sts[i].ok
		r.miss += sts[i].miss
		r.rejected += sts[i].rejected
		r.bad += sts[i].bad
		sloViol += sts[i].sloViolations
		scanPairs += sts[i].scanPairs
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	total := lf.conns * lf.ops
	r.wall = wall
	r.allocs = allocs
	r.mops = float64(total) / wall.Seconds() / 1e6
	r.achieved = float64(total) / wall.Seconds()
	r.p50, r.p95, r.p99 = pctl(all, 0.50), pctl(all, 0.95), pctl(all, 0.99)
	r.max = pctl(all, 1)
	// Integer average, the same accounting testing.AllocsPerRun uses: a
	// handful of fixed-cost allocations over a long run round to zero, a
	// per-op allocation does not.
	r.allocsPerOp = allocs / uint64(total)

	variant := "closed-loop"
	if lf.rate > 0 {
		variant = "open-loop"
	}
	r.cell = exp.Cell{
		Variant:    variant,
		Label:      "ycsb-" + spec.key,
		Threads:    lf.conns,
		Ops:        total,
		MOpsPerSec: r.mops,
		WallNanos:  uint64(wall.Nanoseconds()),
		Metrics: map[string]uint64{
			"load/ok":            r.ok,
			"load/miss":          r.miss,
			"load/rejected":      r.rejected,
			"load/bad":           r.bad,
			"load/scan_pairs":    scanPairs,
			"load/lat_p50ns":     uint64(r.p50.Nanoseconds()),
			"load/lat_p95ns":     uint64(r.p95.Nanoseconds()),
			"load/lat_p99ns":     uint64(r.p99.Nanoseconds()),
			"load/lat_maxns":     uint64(r.max.Nanoseconds()),
			"load/allocs":        allocs,
			"load/allocs_per_op": r.allocsPerOp,
		},
	}
	if lf.rate > 0 {
		r.cell.Metrics["load/target_rate"] = uint64(lf.rate + 0.5)
		r.cell.Metrics["load/achieved_rate"] = uint64(r.achieved + 0.5)
		r.cell.Metrics["load/slo_violations"] = sloViol
	}
	if post != nil {
		// Measured-phase deltas of the server's own counters, so the
		// report pairs client-observed latency with server-side truth
		// (requests actually served, batches coalesced, scans answered).
		r.scrapeDropped = !mergeServerDeltas(r.cell.Metrics, pre, post)
	}
	return r, nil
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "hybridsd address")
		conns     = flag.Int("conns", 4, "concurrent client connections")
		depth     = flag.Int("depth", 16, "pipelined requests in flight per connection (closed loop)")
		workloads = flag.String("workload", "", "comma-separated YCSB core workloads (a|b|c|d|e|f), one measured phase each; empty keeps the legacy -read/-insert/-remove flags")
		ops       = flag.Int("ops", 20000, "measured operations per connection (per workload)")
		records   = flag.Int("records", 16384, "preloaded records")
		keyMax    = flag.Uint("keymax", 1<<20, "workload key-space bound (power of two, <= server -keymax)")
		read      = flag.Int("read", 100, "read percentage")
		insert    = flag.Int("insert", 0, "insert percentage (with -remove switches to the uniform mix)")
		remove    = flag.Int("remove", 0, "remove percentage")
		seed      = flag.Uint64("seed", 1, "workload seed")
		warmup    = flag.Int("warmup", 2048, "untimed warmup operations per connection before the measured phase")
		rate      = flag.Float64("rate", 0, "open-loop target arrival rate, ops/s across all connections (0 = closed loop)")
		ramp      = flag.Duration("ramp", 2*time.Second, "open-loop ramp: arrival rate climbs a TCP-CUBIC curve to -rate over this window")
		slo       = flag.Duration("slo", 0, "open-loop latency SLO; slower responses (from scheduled send time) count as load/slo_violations")
		maxAllocs = flag.Int("max-allocs-per-op", -1, "fail when measured client allocations per op exceed this (integer average, like testing.AllocsPerRun); -1 disables")
		noload    = flag.Bool("noload", false, "skip the preload phase (server already populated)")
		markdown  = flag.Bool("markdown", false, "emit a markdown table")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON")
		stats     = flag.Bool("stats", false, "dump the server STATS snapshot to stderr after the run")
		scrape    = flag.String("scrape", "", "hybridsd admin-plane base URL; merges measured-phase server/* counter deltas into the report")
	)
	flag.Parse()
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hybridsload: "+format+"\n", args...)
		os.Exit(2)
	}
	if err := validateSizes(*conns, *depth, *ops, *records, *warmup); err != nil {
		usage("%v", err)
	}
	if err := validateKeyMax(uint64(*keyMax), *records); err != nil {
		usage("%v", err)
	}
	if *rate < 0 {
		usage("-rate %v must be >= 0 (0 selects the closed loop)", *rate)
	}
	if *ramp < 0 {
		usage("-ramp %v must be >= 0", *ramp)
	}
	if *slo != 0 && *rate == 0 {
		usage("-slo is only meaningful in the open-loop mode; set -rate")
	}
	specs, err := parseWorkloads(*workloads, *records, uint32(*keyMax), *read, *insert, *remove, *seed)
	if err != nil {
		usage("%v", err)
	}
	openLoop := *rate > 0

	if !*noload {
		t0 := time.Now()
		// The load phase is mix-independent: every workload of a run
		// shares the same preloaded records.
		if err := preload(*addr, ycsb.New(specs[0].cfg).Load()); err != nil {
			fmt.Fprintf(os.Stderr, "preload: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hybridsload: preloaded %d records in %v\n", *records, time.Since(t0).Round(time.Millisecond))
	}

	lf := loadFlags{
		addr: *addr, conns: *conns, depth: *depth, ops: *ops, warmup: *warmup,
		rate: *rate, ramp: *ramp, slo: *slo, scrape: *scrape,
	}
	mode, header := "closed-loop", []string{"workload", "conns", "depth", "ops", "Mops/s", "p50 µs", "p95 µs", "p99 µs", "max µs", "allocs/op"}
	if openLoop {
		mode, header = "open-loop", []string{"workload", "conns", "target/s", "achieved/s", "ops", "p50 µs", "p95 µs", "p99 µs", "SLO viol", "allocs/op"}
	}
	title := fmt.Sprintf("hybridsd %s load, %s", mode, specs[0].title)
	if len(specs) > 1 {
		var keys []string
		for _, s := range specs {
			keys = append(keys, s.key)
		}
		title = fmt.Sprintf("hybridsd %s load, YCSB suite %s", mode, strings.Join(keys, ","))
	}
	res := exp.Result{
		ID:     "hybridsload",
		Title:  title,
		Header: header,
		Meta:   provenance(),
	}

	us := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3) }
	var worstAllocs, totalBad uint64
	var totalAllocs uint64
	for _, spec := range specs {
		// Each connection's stream is warmup + measured ops replayed in
		// order: the warmup is simply the stream's untimed prefix, so the
		// whole sequence stays deterministic for a given seed.
		streams := ycsb.New(spec.cfg).Streams(*conns, *warmup+*ops)
		r, err := runWorkload(lf, spec, streams)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybridsload: workload %s: %v\n", spec.key, err)
			os.Exit(1)
		}
		if *workloads != "" {
			// Suite workloads restore the preloaded state so rows (and
			// later -noload invocations) are independent.
			if err := cleanupInserts(*addr, streams); err != nil {
				fmt.Fprintf(os.Stderr, "hybridsload: cleanup after workload %s: %v\n", spec.key, err)
			}
		}
		if r.scrapeDropped {
			fmt.Fprintf(os.Stderr, "hybridsload: server counters regressed between scrapes (hybridsd restarted?); dropping server/* deltas for workload %s\n", spec.key)
		}
		if openLoop {
			res.Rows = append(res.Rows, []string{
				spec.key, fmt.Sprint(*conns), fmt.Sprintf("%.0f", *rate), fmt.Sprintf("%.0f", r.achieved),
				fmt.Sprint(r.cell.Ops), us(r.p50), us(r.p95), us(r.p99),
				fmt.Sprint(r.cell.Metrics["load/slo_violations"]), fmt.Sprint(r.allocsPerOp),
			})
		} else {
			res.Rows = append(res.Rows, []string{
				spec.key, fmt.Sprint(*conns), fmt.Sprint(*depth), fmt.Sprint(r.cell.Ops),
				fmt.Sprintf("%.2f", r.mops), us(r.p50), us(r.p95), us(r.p99), us(r.max),
				fmt.Sprint(r.allocsPerOp),
			})
		}
		res.Cells = append(res.Cells, r.cell)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: %s — %d ok, %d miss, %d rejected, %d bad; %d allocs",
			spec.key, spec.title, r.ok, r.miss, r.rejected, r.bad, r.allocs))
		if r.allocsPerOp > worstAllocs {
			worstAllocs = r.allocsPerOp
		}
		totalBad += r.bad
		totalAllocs += r.allocs
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("steady state: %d warmup ops/conn untimed per workload", *warmup),
		"client-observed latency over TCP loopback; wall-clock throughput is machine-dependent")
	if openLoop {
		res.Notes = append(res.Notes,
			fmt.Sprintf("open loop: latency measured from scheduled send time (coordinated-omission-free); CUBIC ramp %v to %.0f ops/s", *ramp, *rate))
		if *slo > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("SLO: responses slower than %v count as violations", *slo))
		}
	}
	if *scrape != "" {
		res.Notes = append(res.Notes,
			fmt.Sprintf("server/* metrics are measured-phase deltas scraped from %s", *scrape))
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
	case *markdown:
		fmt.Print(res.Markdown())
	default:
		fmt.Println(res.Format())
	}

	if *stats {
		c, err := server.Dial(*addr)
		if err == nil {
			if text, err := c.Stats(); err == nil {
				fmt.Fprintf(os.Stderr, "%s", text)
			}
			c.Close()
		}
	}

	if *maxAllocs >= 0 && worstAllocs > uint64(*maxAllocs) {
		fmt.Fprintf(os.Stderr, "hybridsload: %d allocs/op exceeds -max-allocs-per-op %d\n", worstAllocs, *maxAllocs)
		os.Exit(1)
	}
	if totalBad > 0 {
		os.Exit(1)
	}
}
