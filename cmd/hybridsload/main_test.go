package main

import (
	"bufio"
	"math"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/server"
	"hybrids/internal/ycsb"
)

func TestValidateKeyMax(t *testing.T) {
	cases := []struct {
		name    string
		v       uint64
		records int
		wantErr bool
	}{
		// Regression: 1<<32 used to truncate to uint32(0) silently and 3<<32
		// to 1<<32... any value >= 2^32 must be rejected at flag level.
		{"truncates-to-zero", 1 << 32, 16384, true},
		{"above-32-bits", 3 << 32, 16384, true},
		{"zero", 0, 16384, true},
		{"not-power-of-two", 3 << 20, 16384, true},
		{"no-insert-headroom", 32768, 16384, true},
		{"minimum-headroom", 65536, 16384, false},
		{"default", 1 << 20, 16384, false},
		{"max-power-of-two", 1 << 31, 16384, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateKeyMax(c.v, c.records)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateKeyMax(%d, %d) = %v, wantErr %v", c.v, c.records, err, c.wantErr)
			}
		})
	}
}

func TestValidateSizes(t *testing.T) {
	cases := []struct {
		name                               string
		conns, depth, ops, records, warmup int
		wantErr                            bool
	}{
		// Regressions: -conns 0 and -ops 0 divided by zero computing
		// allocs/op, -conns -1 panicked in ycsb Streams, -depth 0 hung
		// replay forever, -records 0 ran a zipfian picker over zero items
		// and -warmup -5 silently became 0.
		{"zero-conns", 0, 16, 20000, 16384, 2048, true},
		{"negative-conns", -1, 16, 20000, 16384, 2048, true},
		{"zero-depth", 4, 0, 20000, 16384, 2048, true},
		{"negative-depth", 4, -3, 20000, 16384, 2048, true},
		{"zero-ops", 4, 16, 0, 16384, 2048, true},
		{"negative-ops", 4, 16, -1, 16384, 2048, true},
		{"zero-records", 4, 16, 20000, 0, 2048, true},
		{"negative-records", 4, 16, 20000, -1, 2048, true},
		{"negative-warmup", 4, 16, 20000, 16384, -5, true},
		{"zero-warmup", 4, 16, 20000, 16384, 0, false},
		{"default", 4, 16, 20000, 16384, 2048, false},
		{"minimum", 1, 1, 1, 1, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateSizes(c.conns, c.depth, c.ops, c.records, c.warmup)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateSizes(%d, %d, %d, %d, %d) = %v, wantErr %v",
					c.conns, c.depth, c.ops, c.records, c.warmup, err, c.wantErr)
			}
		})
	}
}

func TestMergeServerDeltasMergesMonotoneCounters(t *testing.T) {
	metrics := map[string]uint64{"load/ok": 7}
	pre := map[string]uint64{"server/requests": 100, "server/ops/scan": 10, "other/x": 5}
	post := map[string]uint64{"server/requests": 250, "server/ops/scan": 40, "other/x": 9}
	if !mergeServerDeltas(metrics, pre, post) {
		t.Fatal("mergeServerDeltas = false, want true")
	}
	if got := metrics["server/requests"]; got != 150 {
		t.Errorf("server/requests delta = %d, want 150", got)
	}
	if got := metrics["server/ops/scan"]; got != 30 {
		t.Errorf("server/ops/scan delta = %d, want 30", got)
	}
	if _, ok := metrics["other/x"]; ok {
		t.Error("non-server/ counter merged")
	}
	if got := metrics["load/ok"]; got != 7 {
		t.Errorf("pre-existing metric clobbered: load/ok = %d, want 7", got)
	}
}

// A counter regression (post < pre) means the server restarted between
// the scrapes; the unsigned subtraction used to wrap to a huge value and
// land in the report. The merge must refuse wholesale — not even the
// still-monotone counters may land, since their deltas straddle the
// restart too.
func TestMergeServerDeltasDropsOnCounterRegression(t *testing.T) {
	metrics := map[string]uint64{}
	pre := map[string]uint64{"server/requests": 100, "server/batches": 20}
	post := map[string]uint64{"server/requests": 40, "server/batches": 120}
	if mergeServerDeltas(metrics, pre, post) {
		t.Fatal("mergeServerDeltas = true on regressed counter, want false")
	}
	if len(metrics) != 0 {
		t.Fatalf("metrics polluted despite regression: %v", metrics)
	}
}

func TestCubicScheduleFlatAndRamped(t *testing.T) {
	const n, rate = 1000, 10000.0
	flat := cubicSchedule(n, rate, 0)
	if flat[0] != 0 {
		t.Fatalf("flat sched[0] = %v, want 0", flat[0])
	}
	for i := 1; i < n; i++ {
		if flat[i] <= flat[i-1] {
			t.Fatalf("flat schedule not increasing at %d: %v <= %v", i, flat[i], flat[i-1])
		}
	}
	// Flat: op i goes out at i/rate.
	wantLast := time.Duration(float64(n-1) / rate * float64(time.Second))
	if diff := (flat[n-1] - wantLast).Abs(); diff > time.Millisecond {
		t.Fatalf("flat sched[%d] = %v, want ~%v", n-1, flat[n-1], wantLast)
	}

	ramped := cubicSchedule(n, rate, 50*time.Millisecond)
	for i := 1; i < n; i++ {
		if ramped[i] <= ramped[i-1] {
			t.Fatalf("ramped schedule not increasing at %d", i)
		}
	}
	// The ramp only slows ops down, and the very first interval runs at
	// (1-beta)*rate while the tail (past the ramp) runs at the full rate.
	if ramped[n-1] <= flat[n-1] {
		t.Fatalf("ramped schedule finished no later than flat: %v <= %v", ramped[n-1], flat[n-1])
	}
	first := ramped[1] - ramped[0]
	rampStart := rate * 0.7
	wantFirst := time.Duration(float64(time.Second) / rampStart)
	if diff := (first - wantFirst).Abs(); diff > wantFirst/10 {
		t.Fatalf("first ramped interval = %v, want ~%v", first, wantFirst)
	}
	last := ramped[n-1] - ramped[n-2]
	wantLastIv := time.Duration(1 / rate * float64(time.Second))
	if diff := (last - wantLastIv).Abs(); diff > wantLastIv/10 {
		t.Fatalf("steady ramped interval = %v, want ~%v", last, wantLastIv)
	}
}

func TestParseWorkloads(t *testing.T) {
	specs, err := parseWorkloads("a, E,f", 1024, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].key != "a" || specs[1].key != "e" || specs[2].key != "f" {
		t.Fatalf("parseWorkloads suite = %+v", specs)
	}
	if specs[1].cfg.ScanPct != 95 {
		t.Fatalf("workload e ScanPct = %d, want 95", specs[1].cfg.ScanPct)
	}
	if _, err := parseWorkloads("a,z", 1024, 1<<20, 1); err == nil {
		t.Fatal("unknown workload letter accepted")
	}
}

// The -workload default replays what the run without -workload always
// did: YCSB-C, with the same load set and the same per-connection
// streams, element for element.
func TestDefaultWorkloadIsYCSBC(t *testing.T) {
	const records, keyMax, seed, conns, ops = 1024, 1 << 14, 7, 3, 500
	specs, err := parseWorkloads(defaultWorkload, records, keyMax, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].key != "c" {
		t.Fatalf("default -workload %q parses to %+v, want one spec with key c", defaultWorkload, specs)
	}
	got, want := ycsb.New(specs[0].cfg), ycsb.New(ycsb.YCSBC(records, keyMax, seed))
	if !reflect.DeepEqual(got.Load(), want.Load()) {
		t.Error("default workload's load set differs from YCSB-C's")
	}
	if !reflect.DeepEqual(got.Streams(conns, ops), want.Streams(conns, ops)) {
		t.Error("default workload's streams differ from YCSB-C's")
	}
}

// stallServer is a minimal protocol server that answers every request
// with a scalar StatusOK, sleeping once for stall after answering the
// `after`-th request on a connection. It is the controlled "server hiccup"
// the coordinated-omission test measures against.
func stallServer(t *testing.T, stall time.Duration, after int) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				br := bufio.NewReaderSize(nc, 32<<10)
				bw := bufio.NewWriterSize(nc, 32<<10)
				var buf []byte
				served := 0
				reqLen := len(server.AppendRequest(nil, server.Request{}))
				for {
					if _, err := br.Discard(reqLen); err != nil {
						return
					}
					served++
					if served == after {
						bw.Flush()
						time.Sleep(stall)
					}
					buf = server.AppendScalarResponse(buf[:0], server.StatusOK, 1)
					if _, err := bw.Write(buf); err != nil {
						return
					}
					if br.Buffered() == 0 {
						if err := bw.Flush(); err != nil {
							return
						}
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// p99 of one connection's measured latencies.
func connP99(st *connStats) time.Duration {
	sort.Slice(st.lats, func(i, j int) bool { return st.lats[i] < st.lats[j] })
	return pctl(st.lats, 0.99)
}

// The reason the open-loop mode exists: a closed-loop driver coordinates
// with the server under test. When the server stalls, the closed loop
// stops sending — only the handful of requests already in flight observe
// the stall, and the operations that *would* have arrived during it are
// silently never issued, so tail percentiles look healthy (coordinated
// omission). The open loop keeps the arrival schedule fixed and measures
// from scheduled send time, so every operation queued behind the stall is
// charged its full delay. Against a server that stalls once for 250ms
// mid-run, the closed-loop p99 stays far below the stall while the
// open-loop p99 reflects it.
func TestCoordinatedOmissionClosedVsOpenLoop(t *testing.T) {
	const (
		stall = 250 * time.Millisecond
		after = 100 // responses before the stall
		nOps  = 2000
		depth = 4
		rate  = 4000.0 // ops/s: ~1000 arrivals scheduled during the stall
	)
	ops := make([]kv.Op, nOps)
	for i := range ops {
		ops[i] = kv.Op{Kind: hds.Read, Key: uint32(i%1024 + 1)}
	}

	run := func(open bool) *connStats {
		addr, stop := stallServer(t, stall, after)
		defer stop()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		st := &connStats{}
		var warmed sync.WaitGroup
		warmed.Add(1)
		start := make(chan struct{})
		close(start) // no rendezvous needed with one connection
		if open {
			runOpenConn(nc, nil, ops, depth, cubicSchedule(nOps, rate, 0), 0, &warmed, start, st)
		} else {
			runConn(nc, nil, ops, depth, &warmed, start, st)
		}
		if st.err != nil {
			t.Fatal(st.err)
		}
		if len(st.lats) != nOps {
			t.Fatalf("measured %d latencies, want %d", len(st.lats), nOps)
		}
		return st
	}

	closedP99 := connP99(run(false))
	openP99 := connP99(run(true))

	// Closed loop: only `depth` ops (0.2% of the run) ever see the stall,
	// so p99 hides it completely.
	if closedP99 >= stall/4 {
		t.Errorf("closed-loop p99 = %v; expected coordinated omission to hide the %v stall", closedP99, stall)
	}
	// Open loop: ~1000 of 2000 ops are scheduled during the stall and
	// accumulate queueing delay, so p99 shows most of it.
	if openP99 <= stall/2 {
		t.Errorf("open-loop p99 = %v; expected scheduled-time accounting to surface the %v stall", openP99, stall)
	}
}

// The open-loop SLO accounting and the achieved-rate math run against the
// same stall harness: with a 5ms SLO, the stalled window's operations all
// violate it.
func TestOpenLoopSLOViolationsCounted(t *testing.T) {
	const (
		stall = 100 * time.Millisecond
		after = 50
		nOps  = 1000
		rate  = 4000.0
		slo   = 5 * time.Millisecond
	)
	ops := make([]kv.Op, nOps)
	for i := range ops {
		ops[i] = kv.Op{Kind: hds.Read, Key: uint32(i%1024 + 1)}
	}
	addr, stop := stallServer(t, stall, after)
	defer stop()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	st := &connStats{}
	var warmed sync.WaitGroup
	warmed.Add(1)
	start := make(chan struct{})
	close(start)
	runOpenConn(nc, nil, ops, 4, cubicSchedule(nOps, rate, 0), slo, &warmed, start, st)
	if st.err != nil {
		t.Fatal(st.err)
	}
	// ~400 arrivals are scheduled during the 100ms stall; allow wide slack
	// but require a substantial violation count and not all ops.
	if st.sloViolations < 100 || st.sloViolations >= nOps {
		t.Fatalf("sloViolations = %d, want in [100, %d)", st.sloViolations, nOps)
	}
	if st.ok != nOps {
		t.Fatalf("ok = %d, want %d", st.ok, nOps)
	}
}

// cubicSchedule must never divide by zero or emit NaN offsets, whatever
// the ramp geometry.
func TestCubicScheduleNoNaN(t *testing.T) {
	for _, ramp := range []time.Duration{0, time.Nanosecond, time.Second, time.Hour} {
		sched := cubicSchedule(100, 1e6, ramp)
		for i, d := range sched {
			if d < 0 || math.IsNaN(float64(d)) {
				t.Fatalf("ramp %v sched[%d] = %v", ramp, i, d)
			}
		}
	}
}

// startServer serves a 4-partition runtime over keyMax on a loopback
// port until the test ends, and returns the server, its runtime and the
// address.
func startServer(t *testing.T, keyMax uint64) (*server.Server, *core.Hybrid, string) {
	t.Helper()
	h := core.New(core.Config{Partitions: 4, KeyMax: keyMax})
	srv := server.New(h, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
		h.Close()
	})
	return srv, h, ln.Addr().String()
}

// Both loops decode SCAN responses end to end: against a real server
// replaying a YCSB-E stream after a read-only warmup, every response is
// well formed, every op is answered, and the pairs each loop decodes are
// exactly the pairs the server sent.
func TestScanDecodingBothLoops(t *testing.T) {
	const (
		records = 1024
		keyMax  = 1 << 14
		seed    = 3
		warmup  = 64
		nOps    = 600
		depth   = 8
	)
	srv, _, addr := startServer(t, keyMax)
	cfg, err := ycsb.Workload("e", records, keyMax, seed)
	if err != nil {
		t.Fatal(err)
	}
	gen := ycsb.New(cfg)
	if err := preload(addr, gen.Load()); err != nil {
		t.Fatal(err)
	}
	// One stream per loop, so the second loop's inserts mint fresh keys.
	// The warmup reads only, so every scan pair the server counts belongs
	// to a measured phase.
	streams := gen.Streams(2, nOps)
	warms := ycsb.New(ycsb.YCSBC(records, keyMax, seed)).Streams(2, warmup)

	// scanPairs reads server/scan_pairs once every connection opened so
	// far has closed and folded its counts into the server's registry.
	conns := uint64(1) // preload's connection
	scanPairs := func() uint64 {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			m, _ := srv.ExportMetrics()
			if m.Get("server/conns_closed") == conns {
				return m.Get("server/scan_pairs")
			}
			if time.Now().After(deadline) {
				t.Fatalf("server/conns_closed = %d, want %d", m.Get("server/conns_closed"), conns)
			}
			time.Sleep(time.Millisecond)
		}
	}

	sent := uint64(0)
	for i, open := range []bool{false, true} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		st := &connStats{}
		var warmed sync.WaitGroup
		warmed.Add(1)
		start := make(chan struct{})
		close(start)
		if open {
			runOpenConn(nc, warms[i], streams[i], depth, cubicSchedule(nOps, 50000, 0), 0, &warmed, start, st)
		} else {
			runConn(nc, warms[i], streams[i], depth, &warmed, start, st)
		}
		conns++
		if st.err != nil {
			t.Fatalf("open=%v: %v", open, st.err)
		}
		if st.bad != 0 {
			t.Errorf("open=%v: %d bad responses", open, st.bad)
		}
		if st.ok+st.miss != nOps {
			t.Errorf("open=%v: ok %d + miss %d, want %d", open, st.ok, st.miss, nOps)
		}
		total := scanPairs()
		if st.scanPairs == 0 || st.scanPairs != total-sent {
			t.Errorf("open=%v: decoded %d scan pairs, server sent %d", open, st.scanPairs, total-sent)
		}
		sent = total
	}
}
