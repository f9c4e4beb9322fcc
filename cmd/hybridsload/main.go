// Command hybridsload is a load generator for hybridsd: it replays
// deterministic YCSB operation streams (the same internal/ycsb generator
// the benchmarks use) over pipelined protocol connections and reports
// throughput and client-observed latency percentiles as a text or
// markdown table, or as JSON.
//
// Usage:
//
//	hybridsload [-addr 127.0.0.1:7070] [-conns 4] [-depth 16]
//	            [-workload c] [-ops 20000] [-records 16384]
//	            [-keymax 1048576] [-seed 1] [-warmup 2048] [-max-allocs-per-op -1]
//	            [-rate 0 -ramp 2s -slo 0]
//	            [-noload] [-markdown|-json] [-stats]
//	            [-scrape http://127.0.0.1:7071]
//
// -workload selects YCSB core workloads by letter (comma-separated, "c"
// by default; each runs as its own measured phase and report row, and
// the keys a workload inserts are deleted after it). Workload E drives
// SCAN requests end-to-end; each response's decoded pairs go back to the
// server package's pool, so the hot path stays allocation-free.
//
// Two load modes:
//
//   - Closed loop (default): each connection is a server.Client keeping
//     -depth requests in flight — every response received triggers the
//     next send, so concurrency is conns x depth. Requests are written
//     out only before Recv would block on a response, and latency is
//     measured from when an op enters the connection's buffer. A
//     closed loop coordinates with the server: when the server stalls,
//     the client stops sending, so the operations that would have queued
//     behind the stall are never measured (coordinated omission).
//
//   - Open loop (-rate R): operations are paced by a precomputed arrival
//     schedule targeting R ops/s across all connections, ramping up along
//     a TCP-CUBIC-shaped curve over -ramp, and written to the socket as
//     they fall due. Latency is measured from each operation's
//     *scheduled* send time, so queueing delay — including delay caused
//     by the client falling behind schedule — is visible. -slo D counts
//     responses slower than D (load/slo_violations), and the report
//     carries load/target_rate and load/achieved_rate.
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
	"hybrids/internal/hds"
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
	if op.Kind == hds.Scan {
		st.scanPairs += uint64(len(resp.Pairs))
	}
}

// request is op's protocol request; for SCAN, Op.Value carries the pair
// limit.
func request(op kv.Op) server.Request {
	return server.Request{Op: server.OpOf(op.Kind), Key: uint64(op.Key), Value: uint64(op.Value)}
}

// replay runs ops through c as a closed loop with depth requests in
// flight. When st is nil the phase is untimed warmup (statuses and
// latencies are discarded); otherwise send times come from sendTimes
// (pre-sized by the caller so the measured phase does not grow it).
func replay(c *server.Client, ops []kv.Op, depth int, sendTimes []time.Time, st *connStats) error {
	next := 0
	for done := 0; done < len(ops); done++ {
		for ; next < len(ops) && next-done < depth; next++ {
			if st != nil {
				sendTimes = append(sendTimes, time.Now())
			}
			if err := c.Send(request(ops[next])); err != nil {
				return err
			}
		}
		resp, err := c.Recv()
		if err != nil {
			return err
		}
		if st != nil {
			st.lats = append(st.lats, time.Since(sendTimes[done]))
			st.tally(ops[done], resp)
		}
		server.PutPairs(resp.Pairs)
	}
	return nil
}

// runConn owns one closed-loop connection's lifecycle: untimed warmup,
// buffer pre-sizing, then — once the start gate opens — the timed replay.
func runConn(nc net.Conn, warm, main []kv.Op, depth int, warmed *sync.WaitGroup, start <-chan struct{}, st *connStats) {
	c := server.NewClient(nc)
	defer c.Close()
	err := replay(c, warm, depth, nil, nil)
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
	if err := replay(c, main, depth, sendTimes, st); err != nil {
		st.err = err
	}
}

// runOpenConn owns one open-loop connection's lifecycle. After a
// closed-loop warmup, a sender goroutine writes each op to the socket as
// its precomputed schedule (offsets from the gate's open) falls due while
// this goroutine receives; each response's latency is measured from the
// op's *scheduled* send time, so time spent queued — on the server, in
// the kernel, or because the sender itself fell behind schedule — is
// charged to the operation rather than silently omitted.
func runOpenConn(nc net.Conn, warm, main []kv.Op, depth int, sched []time.Duration, slo time.Duration, warmed *sync.WaitGroup, start <-chan struct{}, st *connStats) {
	defer nc.Close()
	err := replay(server.NewClient(nc), warm, depth, nil, nil)
	// The warmup received every response it asked for and the server
	// sends nothing unasked, so this reader starts on a clean stream.
	br := bufio.NewReaderSize(nc, 32<<10)
	scratch := make([]byte, 0, 4<<10)
	frame := make([]byte, 0, 64)
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
			frame = server.AppendRequest(frame[:0], request(main[i]))
			if _, err := nc.Write(frame); err != nil {
				sendErr <- err
				nc.Close()
				return
			}
		}
	}()
	for i := range main {
		var resp server.Response
		resp, scratch, err = server.ReadResponseBuf(br, server.OpOf(main[i].Kind), scratch)
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
		server.PutPairs(resp.Pairs)
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

// validateKeyMax rejects -keymax values outside the 32-bit key space the
// workload generator draws from: values of 2³² and above used to wrap
// modulo 2³² (1<<32 became 0). Every other rule on -keymax and -records is
// ycsb.Config.Validate's, which parseWorkloads applies.
func validateKeyMax(v uint64) error {
	if v == 0 || v > math.MaxUint32 {
		return fmt.Errorf("-keymax %d does not fit the 32-bit key space (want a power of two below 2^32)", v)
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

// workloadSpec is one measured workload: a report row and cell.
type workloadSpec struct {
	key   string // the -workload letter
	title string
	cfg   ycsb.Config
}

// defaultWorkload is -workload's default: YCSB-C, the paper's baseline.
const defaultWorkload = "c"

// parseWorkloads resolves the -workload flag: comma-separated YCSB core
// letters, each a config ycsb.New accepts.
func parseWorkloads(list string, records int, keyMax uint32, seed uint64) ([]workloadSpec, error) {
	var out []workloadSpec
	for _, w := range strings.Split(list, ",") {
		w = strings.TrimSpace(strings.ToLower(w))
		cfg, err := ycsb.Workload(w, records, keyMax, seed)
		if err == nil {
			err = cfg.Validate()
		}
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
			if op.Kind == hds.Insert {
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

// runWorkload measures one workload: dial, warm up, gate, replay, and
// aggregate into its report cell. streams is the per-connection op
// sequence (warmup prefix included).
func runWorkload(lf loadFlags, spec workloadSpec, streams [][]kv.Op) (cell, error) {
	ncs := make([]net.Conn, lf.conns)
	for i := range ncs {
		nc, err := net.Dial("tcp", lf.addr)
		if err != nil {
			for _, prev := range ncs[:i] {
				prev.Close()
			}
			return cell{}, fmt.Errorf("dial conn %d: %w", i, err)
		}
		ncs[i] = nc
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
				runOpenConn(ncs[i], warm, main, lf.depth, sched, lf.slo, &warmed, start, &sts[i])
			} else {
				runConn(ncs[i], warm, main, lf.depth, &warmed, start, &sts[i])
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
			return cell{}, fmt.Errorf("scrape: %w", err)
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
			return cell{}, fmt.Errorf("scrape: %w", err)
		}
	}

	var all []time.Duration
	var sum connStats
	for i := range sts {
		if sts[i].err != nil {
			return cell{}, fmt.Errorf("conn %d: %w", i, sts[i].err)
		}
		all = append(all, sts[i].lats...)
		sum.ok += sts[i].ok
		sum.miss += sts[i].miss
		sum.rejected += sts[i].rejected
		sum.bad += sts[i].bad
		sum.sloViolations += sts[i].sloViolations
		sum.scanPairs += sts[i].scanPairs
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	ns := func(p float64) uint64 { return uint64(pctl(all, p).Nanoseconds()) }
	total := lf.conns * lf.ops
	variant := "closed-loop"
	if lf.rate > 0 {
		variant = "open-loop"
	}
	c := cell{
		Variant:    variant,
		Label:      "ycsb-" + spec.key,
		Threads:    lf.conns,
		Ops:        total,
		MOpsPerSec: float64(total) / wall.Seconds() / 1e6,
		WallNanos:  uint64(wall.Nanoseconds()),
		Metrics: map[string]uint64{
			"load/ok":         sum.ok,
			"load/miss":       sum.miss,
			"load/rejected":   sum.rejected,
			"load/bad":        sum.bad,
			"load/scan_pairs": sum.scanPairs,
			"load/lat_p50ns":  ns(0.50),
			"load/lat_p95ns":  ns(0.95),
			"load/lat_p99ns":  ns(0.99),
			"load/lat_maxns":  ns(1),
			"load/allocs":     allocs,
			// Integer average, the same accounting testing.AllocsPerRun
			// uses: a handful of fixed-cost allocations over a long run
			// round to zero, a per-op allocation does not.
			"load/allocs_per_op": allocs / uint64(total),
		},
	}
	if lf.rate > 0 {
		c.Metrics["load/target_rate"] = uint64(lf.rate + 0.5)
		c.Metrics["load/achieved_rate"] = uint64(c.MOpsPerSec*1e6 + 0.5)
		c.Metrics["load/slo_violations"] = sum.sloViolations
	}
	// Measured-phase deltas of the server's own counters, so the report
	// pairs client-observed latency with server-side truth (requests
	// actually served, batches coalesced, scans answered).
	if post != nil && !mergeServerDeltas(c.Metrics, pre, post) {
		fmt.Fprintf(os.Stderr, "hybridsload: server counters regressed between scrapes (hybridsd restarted?); dropping server/* deltas for workload %s\n", spec.key)
	}
	return c, nil
}

// measure runs each workload in turn against a preloaded server, deleting
// the keys it inserted after it, and returns the run's report.
func measure(lf loadFlags, specs []workloadSpec) (report, error) {
	openLoop := lf.rate > 0
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
	res := report{ID: "hybridsload", Title: title, Meta: provenance(), header: header}

	us := func(ns uint64) string { return fmt.Sprintf("%.1f", float64(ns)/1e3) }
	for _, spec := range specs {
		// Each connection's stream is warmup + measured ops replayed in
		// order: the warmup is simply the stream's untimed prefix, so the
		// whole sequence stays deterministic for a given seed.
		streams := ycsb.New(spec.cfg).Streams(lf.conns, lf.warmup+lf.ops)
		c, err := runWorkload(lf, spec, streams)
		if err != nil {
			return report{}, fmt.Errorf("workload %s: %w", spec.key, err)
		}
		// Restore the preloaded state so rows (and later -noload
		// invocations) are independent.
		if err := cleanupInserts(lf.addr, streams); err != nil {
			fmt.Fprintf(os.Stderr, "hybridsload: cleanup after workload %s: %v\n", spec.key, err)
		}
		m := c.Metrics
		if openLoop {
			res.rows = append(res.rows, []string{
				spec.key, fmt.Sprint(lf.conns), fmt.Sprintf("%.0f", lf.rate), fmt.Sprintf("%.0f", c.MOpsPerSec*1e6),
				fmt.Sprint(c.Ops), us(m["load/lat_p50ns"]), us(m["load/lat_p95ns"]), us(m["load/lat_p99ns"]),
				fmt.Sprint(m["load/slo_violations"]), fmt.Sprint(m["load/allocs_per_op"]),
			})
		} else {
			res.rows = append(res.rows, []string{
				spec.key, fmt.Sprint(lf.conns), fmt.Sprint(lf.depth), fmt.Sprint(c.Ops),
				fmt.Sprintf("%.2f", c.MOpsPerSec), us(m["load/lat_p50ns"]), us(m["load/lat_p95ns"]), us(m["load/lat_p99ns"]), us(m["load/lat_maxns"]),
				fmt.Sprint(m["load/allocs_per_op"]),
			})
		}
		res.Cells = append(res.Cells, c)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: %s — %d ok, %d miss, %d rejected, %d bad; %d allocs",
			spec.key, spec.title, m["load/ok"], m["load/miss"], m["load/rejected"], m["load/bad"], m["load/allocs"]))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("steady state: %d warmup ops/conn untimed per workload", lf.warmup),
		"client-observed latency over TCP loopback; wall-clock throughput is machine-dependent")
	if openLoop {
		res.Notes = append(res.Notes,
			fmt.Sprintf("open loop: latency measured from scheduled send time (coordinated-omission-free); CUBIC ramp %v to %.0f ops/s", lf.ramp, lf.rate))
		if lf.slo > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("SLO: responses slower than %v count as violations", lf.slo))
		}
	}
	if lf.scrape != "" {
		res.Notes = append(res.Notes,
			fmt.Sprintf("server/* metrics are measured-phase deltas scraped from %s", lf.scrape))
	}
	return res, nil
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "hybridsd address")
		conns     = flag.Int("conns", 4, "concurrent client connections")
		depth     = flag.Int("depth", 16, "pipelined requests in flight per connection (closed loop)")
		workloads = flag.String("workload", defaultWorkload, "comma-separated YCSB core workloads (a|b|c|d|e|f), one measured phase each")
		ops       = flag.Int("ops", 20000, "measured operations per connection (per workload)")
		records   = flag.Int("records", 16384, "preloaded records")
		keyMax    = flag.Uint("keymax", 1<<20, "workload key-space bound (power of two, <= server -keymax)")
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
	if err := validateKeyMax(uint64(*keyMax)); err != nil {
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
	specs, err := parseWorkloads(*workloads, *records, uint32(*keyMax), *seed)
	if err != nil {
		usage("%v", err)
	}

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

	res, err := measure(loadFlags{
		addr: *addr, conns: *conns, depth: *depth, ops: *ops, warmup: *warmup,
		rate: *rate, ramp: *ramp, slo: *slo, scrape: *scrape,
	}, specs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybridsload: %v\n", err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout, *jsonOut, *markdown); err != nil {
		fmt.Fprintf(os.Stderr, "hybridsload: %v\n", err)
		os.Exit(1)
	}

	if *stats {
		c, err := server.Dial(*addr)
		var text []byte
		if err == nil {
			text, err = c.Stats()
			c.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybridsload: stats: %v\n", err)
		}
		os.Stderr.Write(text)
	}

	var worstAllocs, totalBad uint64
	for _, c := range res.Cells {
		worstAllocs = max(worstAllocs, c.Metrics["load/allocs_per_op"])
		totalBad += c.Metrics["load/bad"]
	}
	if *maxAllocs >= 0 && worstAllocs > uint64(*maxAllocs) {
		fmt.Fprintf(os.Stderr, "hybridsload: %d allocs/op exceeds -max-allocs-per-op %d\n", worstAllocs, *maxAllocs)
		os.Exit(1)
	}
	if totalBad > 0 {
		os.Exit(1)
	}
}
