package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/hds"
	"hybrids/internal/server"
	"hybrids/internal/store"
	"hybrids/internal/ycsb"
)

// Native sizing, shared by the four native workloads: 2^20 records in a
// 2^26 key space over 4 partitions, two load goroutines (never more than
// cores), default server.Config.
const (
	natRecords    = 1 << 20
	natKeyMax     = 1 << 26
	natPartitions = 4
	natClients    = 2
	// natSegmentsPerSecond turns -seconds into a number of fixed-work
	// timed segments: each workload's segment is sized to ~1.25 s on the
	// 2-core sandbox, so the default 10 s buys 8 segments.
	natSegmentsPerSecond = 0.8
	// tracedSegments is the number of plain and of traced timed segments
	// in the traced run.
	tracedSegments = 2
)

// discipline is how a workload's callers issue operations.
type discipline uint8

const (
	viaServer   discipline = iota // sliding-window client over loopback TCP
	viaBatcher                    // core.Batcher.Apply in 16-op batches
	viaBlocking                   // core.Hybrid.Apply, one call in flight
)

// nativeSpec sizes one native workload.
type nativeSpec struct {
	engine string
	mix    func(records int, keyMax uint32, seed uint64) ycsb.Config
	how    discipline
	// segmentOps is the fixed operation count per caller per segment.
	segmentOps int
	// unloadedOps is the operation count of the one-in-flight phase.
	unloadedOps int
}

// sized returns the per-caller segment and unloaded-phase operation counts
// at o's shrink; segments stay whole client windows.
func (spec nativeSpec) sized(o options) (segOps, unloaded int) {
	return max(spec.segmentOps/o.shrink/windowOps, 4) * windowOps, max(spec.unloadedOps/o.shrink, 64)
}

func ycsbE(records int, keyMax uint32, seed uint64) ycsb.Config {
	cfg, err := ycsb.Workload("e", records, keyMax, seed)
	if err != nil {
		panic(err) // unreachable: "e" is a core workload
	}
	return cfg
}

func mix502525(records int, keyMax uint32, seed uint64) ycsb.Config {
	return ycsb.Mix(records, keyMax, 50, 25, 25, seed)
}

var nativeSpecs = map[string]nativeSpec{
	"served-read":   {engine: "btree", mix: ycsb.YCSBC, how: viaServer, segmentOps: 520_000, unloadedOps: 60_000},
	"served-scan":   {engine: "btree", mix: ycsbE, how: viaServer, segmentOps: 125_000, unloadedOps: 30_000},
	"embedded-read": {engine: "btree", mix: ycsb.YCSBC, how: viaBatcher, segmentOps: 900_000, unloadedOps: 1_000_000},
	"embedded-mix":  {engine: "skiplist", mix: mix502525, how: viaBlocking, segmentOps: 65_000, unloadedOps: 100_000},
}

// system is one ready-to-measure native stack plus the inputs it will be
// driven with.
type system struct {
	spec nativeSpec
	cfg  ycsb.Config
	// load is the load set's keys; streams holds each caller's operations:
	// one segment replayed for a read-only mix, otherwise warm-up, every
	// timed segment and the unloaded phase cut from one continuous stream
	// so fresh insert keys stay unique.
	load     []uint64
	streams  [][]hds.Request
	readOnly bool
	segOps   int
	unloaded int

	h         *core.Hybrid
	srv       *server.Server
	serveDone chan error
	clients   []*slidingClient
	batchers  []*core.Batcher
	outcomes  [][]core.Outcome

	// genSeconds is the time ycsb spent generating len(streams) streams.
	genSeconds float64
	genOps     int
}

// setUp builds everything a user pays for to get a ready system:
// workload generation, core.New + Build of the load set, and for served
// workloads server.New + Serve + dial. segments is the number of
// segments after the warm-up the streams must cover.
func setUp(spec nativeSpec, o options, segments int, tr *tracer) (*system, error) {
	records := max(natRecords/o.shrink, 1024)
	// The key space keeps its 64x headroom over the records at any size.
	keyMax := uint32(natKeyMax)
	for keyMax/2 >= uint32(records)*(natKeyMax/natRecords) {
		keyMax /= 2
	}
	s := &system{spec: spec, cfg: spec.mix(records, keyMax, o.seed)}
	s.segOps, s.unloaded = spec.sized(o)
	s.readOnly = s.cfg.ReadPct == 100

	gen := ycsb.New(s.cfg)
	load := gen.Load()
	perCaller := s.segOps
	if !s.readOnly {
		perCaller = (1 + segments) * s.segOps
		if tr != nil { // only the traced run has the one-in-flight phase
			perCaller += s.unloaded
		}
	}
	t0 := time.Now()
	raw := gen.Streams(natClients, perCaller)
	s.genSeconds = time.Since(t0).Seconds()
	s.genOps = natClients * perCaller
	s.streams = make([][]hds.Request, natClients)
	for c, ops := range raw {
		s.streams[c] = make([]hds.Request, len(ops))
		for i, op := range ops {
			s.streams[c][i] = hds.Request{Kind: op.Kind, Key: uint64(op.Key), Value: uint64(op.Value)}
		}
	}

	eng := store.MustEngine(spec.engine)
	newStore := eng.NewNative(store.Tuning{})
	if tr != nil {
		newStore = tr.wrapStores(newStore)
	}
	s.h = core.New(core.Config{Partitions: natPartitions, KeyMax: uint64(keyMax), NewStore: newStore})
	pairs := make([]core.KV, len(load))
	s.load = make([]uint64, len(load))
	for i, p := range load {
		pairs[i] = core.KV{Key: uint64(p.Key), Value: uint64(p.Value)}
		s.load[i] = uint64(p.Key)
	}
	s.h.Build(pairs)

	switch spec.how {
	case viaServer:
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.h.Close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		if tr != nil {
			ln = tr.wrapListener(ln)
		}
		if err := s.serve(ln, server.Config{Store: spec.engine}, func() (net.Conn, error) {
			return net.Dial("tcp", ln.Addr().String())
		}, natClients); err != nil {
			s.tearDown()
			return nil, err
		}
	case viaBatcher:
		for c := 0; c < natClients; c++ {
			s.batchers = append(s.batchers, s.h.NewBatcher(windowOps))
			s.outcomes = append(s.outcomes, make([]core.Outcome, windowOps))
		}
	}
	return s, nil
}

// serve starts a server over s.h on ln and connects n clients through
// dial, one after another so accept order is client order.
func (s *system) serve(ln net.Listener, cfg server.Config, dial func() (net.Conn, error), n int) error {
	s.srv = server.New(s.h, cfg)
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- s.srv.Serve(ln) }()
	for c := 0; c < n; c++ {
		nc, err := dial()
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, &slidingClient{c: server.NewClient(nc)})
	}
	return nil
}

// stopServer closes the clients and drains the server, leaving the map
// open and the server's counters readable. It returns Serve's error and
// is idempotent.
func (s *system) stopServer() error {
	for _, c := range s.clients {
		c.c.Close()
	}
	s.clients = nil
	if s.serveDone == nil {
		return nil
	}
	s.srv.Shutdown()
	err := <-s.serveDone
	s.serveDone = nil
	return err
}

// tearDown stops everything setUp started.
func (s *system) tearDown() {
	s.stopServer()
	s.h.Close()
}

// segment returns each caller's operations for segment i (0 is the
// warm-up).
func (s *system) segment(i int) [][]hds.Request {
	out := make([][]hds.Request, len(s.streams))
	for c, ops := range s.streams {
		if s.readOnly {
			out[c] = ops
		} else {
			out[c] = ops[i*s.segOps : (i+1)*s.segOps]
		}
	}
	return out
}

// unloadedStream returns the operations of the one-in-flight phase, which
// follows the last of segments timed segments in caller 0's stream.
func (s *system) unloadedStream(segments int) []hds.Request {
	ops := s.streams[0]
	if !s.readOnly {
		return ops[(1+segments)*s.segOps:][:s.unloaded]
	}
	out := make([]hds.Request, s.unloaded)
	for i := range out {
		out[i] = ops[i%len(ops)]
	}
	return out
}

func (s *system) newOracle(strict bool, warm map[uint64]int) *oracle {
	return &oracle{hasRemoves: s.cfg.RemovePct > 0, strict: strict, warmRemoves: warm}
}

// drive runs ops as caller c under the workload's discipline, checking
// every result with o.
func (s *system) drive(c int, ops []hds.Request, o *oracle, obs *callerTrace) error {
	switch s.spec.how {
	case viaServer:
		return s.clients[c].run(ops, func(i int, r result) { o.check(ops[i], r) }, obs)
	case viaBatcher:
		b, out := s.batchers[c], s.outcomes[c]
		for i := 0; i < len(ops); i += windowOps {
			batch := ops[i:min(i+windowOps, len(ops))]
			var t0 time.Time
			if obs != nil {
				t0 = time.Now()
			}
			b.Apply(batch, out[:len(batch)])
			if obs != nil {
				obs.call(i/windowOps, t0, time.Now())
			}
			for j, op := range batch {
				o.check(op, result{ok: out[j].Result.OK, rejected: out[j].Rejected, value: out[j].Result.Value})
			}
		}
	case viaBlocking:
		for i, op := range ops {
			var t0 time.Time
			if obs != nil {
				t0 = time.Now()
			}
			r := s.h.Apply(op)
			if obs != nil {
				obs.call(i, t0, time.Now())
			}
			// Apply cannot tell a refused publish from a miss; nothing
			// closes the map mid-run, and the final-state check would
			// catch an operation that never reached a store.
			o.check(op, result{ok: r.OK, value: r.Value})
		}
	}
	return nil
}

// segmentResult is one segment's measurement.
type segmentResult struct {
	wall   time.Duration
	cpu    float64 // process CPU seconds spent
	ops    int
	failed int64
}

// runSegment runs every caller's slice concurrently behind a start gate
// and times gate-open to last caller done.
func (s *system) runSegment(rep *report, segOps [][]hds.Request, strict bool, obs []*callerTrace) segmentResult {
	var warm map[uint64]int
	if strict && s.cfg.RemovePct > 0 {
		warm = countRemoves(segOps...)
	}
	oracles := make([]*oracle, len(segOps))
	errs := make([]error, len(segOps))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range segOps {
		oracles[c] = s.newOracle(strict, warm)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			var ct *callerTrace
			if obs != nil {
				ct = obs[c]
			}
			errs[c] = s.drive(c, segOps[c], oracles[c], ct)
		}(c)
	}
	res := segmentResult{}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	close(start)
	wg.Wait()
	res.wall = time.Since(t0)
	res.cpu = cpuSeconds() - cpu0
	for c, ops := range segOps {
		res.ops += len(ops)
		res.failed += oracles[c].failed
		for _, f := range oracles[c].failures {
			rep.notef("caller %d: %s", c, f)
		}
		if errs[c] != nil {
			// A transport or protocol error loses every op not yet
			// answered; count the whole slice rather than guess.
			rep.notef("caller %d: %v", c, errs[c])
			res.failed += int64(len(ops))
		}
	}
	rep.Attempted += int64(res.ops)
	rep.Failed += res.failed
	return res
}

// unloadedChunks is the number of equal parts the one-in-flight phase is
// timed in. The figure reported is the median of the parts' means: the
// mean of a part absorbs the spinning-or-parked bimodality of single round
// trips, and the median over parts drops the ones a host hiccup landed in.
const unloadedChunks = 8

// runUnloaded issues ops one at a time from a single caller and returns
// the mean round trip of each chunk in µs.
//
// The phase runs on one processor. With one op in flight and two Ps, every
// handoff (socket to reader, reader to combiner, writer to socket) finds
// the other P idle and the Go scheduler wakes and re-parks its thread;
// whether that thread is still spinning when the next handoff comes is a
// per-process mode, and identical runs of served-read read 24 or 37 µs.
// On one P every handoff stays on the processor and the figure is the
// software path length. A slow mode remains even so (served-scan: 12.6 µs,
// or 20 in three runs of twenty), which is why this is a per-layer metric.
func (s *system) runUnloaded(rep *report, ops []hds.Request) []float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := s.newOracle(false, nil)
	var means []float64
	per := max(len(ops)/unloadedChunks, 1)
	for lo := 0; lo < len(ops); lo += per {
		chunk := ops[lo:min(lo+per, len(ops))]
		t0 := time.Now()
		for _, op := range chunk {
			if s.spec.how == viaServer {
				r, err := s.clients[0].one(op)
				if err != nil {
					rep.failf("unloaded %s key %d: %v", op.Kind, op.Key, err)
					return means
				}
				o.check(op, r)
			} else {
				r := s.h.Apply(op)
				o.check(op, result{ok: r.OK, value: r.Value})
			}
		}
		means = append(means, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(chunk)))
	}
	for _, f := range o.failures {
		rep.notef("unloaded: %s", f)
	}
	rep.Attempted += int64(len(ops))
	rep.Failed += o.failed
	return means
}

// checkCounters verifies the runtime's own accounting against what the
// benchmark issued: core applied exactly the scalar ops, and the server
// read exactly as many requests as it answered.
func (s *system) checkCounters(rep *report, issued, scalars int64) {
	counters, _ := s.h.ExportMetrics()
	var coreOps int64
	for p := 0; p < natPartitions; p++ {
		coreOps += int64(counters[fmt.Sprintf("core/p%d/ops", p)])
	}
	if coreOps != scalars {
		rep.failf("core applied %d ops, the benchmark issued %d scalar ops", coreOps, scalars)
	}
	if s.srv == nil {
		return
	}
	sc, _ := s.srv.ExportMetrics()
	if req, resp := int64(sc["server/requests"]), int64(sc["server/responses"]); req != issued || resp != issued {
		rep.failf("server read %d requests and wrote %d responses, the benchmark issued %d", req, resp, issued)
	}
	if n := sc["server/rejected"] + sc["server/bad_requests"]; n != 0 {
		rep.failf("server rejected or refused %d requests", n)
	}
}

// countScalars returns the number of non-scan ops (the ones core counts
// in core/p<i>/ops; scans run as partition barriers).
func countScalars(streams ...[]hds.Request) int64 {
	var n int64
	for _, ops := range streams {
		for _, op := range ops {
			if op.Kind != hds.Scan {
				n++
			}
		}
	}
	return n
}

// nativeSegments is the number of timed segments -seconds buys.
func nativeSegments(seconds int) int {
	return max(2, int(float64(seconds)*natSegmentsPerSecond+0.5))
}

// runNative measures one native workload.
func runNative(rep *report, w workloadDef, o options) {
	spec := nativeSpecs[w.Name]
	if o.trace {
		runNativeTraced(rep, spec, o)
		return
	}
	segments := nativeSegments(o.seconds)
	rep.Segments = segments

	sys, err := setUp(spec, o, segments, nil)
	if err != nil {
		rep.failf("set-up: %v", err)
		return
	}
	setup := time.Since(procStart).Seconds()

	var executed [][]hds.Request
	warm := sys.segment(0)
	sys.runSegment(rep, warm, true, nil)
	executed = append(executed, warm...)
	runtime.GC()

	var thr, cpu []float64
	for i := 1; i <= segments; i++ {
		segOps := sys.segment(i)
		res := sys.runSegment(rep, segOps, false, nil)
		executed = append(executed, segOps...)
		thr = append(thr, float64(res.ops)/res.wall.Seconds())
		cpu = append(cpu, res.cpu/float64(res.ops)*1e6)
	}

	rss, err := peakRSSMB()
	if err != nil {
		rep.failf("peak RSS: %v", err)
	}
	sys.finalChecks(rep, executed)
	sys.tearDown()

	setups, err := setupSamples(o, setup)
	if err != nil {
		rep.failf("%v", err)
	}
	rep.set("setup_s", metric{Value: median(setups), Unit: "s", Segments: setups})
	rep.set("throughput_ops_s", metric{Value: median(thr), Unit: "ops/s", Segments: thr})
	rep.set("cpu_us_per_op", metric{Value: median(cpu), Unit: "us", Segments: cpu})
	rep.set("peak_rss_mb", metric{Value: rss, Unit: "MB"})
}

// finalChecks runs the end-of-run oracle: it drains the server (whose
// writer counts a response only after the client may already have read
// it), then checks the counters and the map's key set against what the
// executed streams leave.
func (s *system) finalChecks(rep *report, executed [][]hds.Request) {
	if err := s.stopServer(); err != nil {
		rep.failf("serve: %v", err)
	}
	var issued int64
	for _, ops := range executed {
		issued += int64(len(ops))
	}
	s.checkCounters(rep, issued, countScalars(executed...))
	if err := checkFinalState(s.h, expectedKeys(s.load, executed...)); err != nil {
		rep.failf("final state: %v", err)
	}
}
