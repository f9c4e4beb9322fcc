package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/hds"
	"hybrids/internal/metrics"
	"hybrids/internal/server"
	"hybrids/internal/store"
)

// The ladder: separate short measurements of one caller replaying the
// workload's own stream against ever more of the stack — bare stores,
// blocking Apply, 16-op batches, the serve loop over an in-memory pipe,
// the serve loop over loopback TCP. Each rung's self time is the
// difference to the rung below, the outside-in equivalent of span self
// time, so by construction
//
//	cds + core self + server.loop_self + socket.self + loadgen.gap = e2e ns/op
//
// where loadgen.gap is what the ladder does not explain.

// ladder holds the rung system: a second map loaded with the same load
// set, whose partition stores are also reachable directly.
type ladder struct {
	spec   nativeSpec
	h      *core.Hybrid
	stores []core.Store
	keyMax uint64
	kvs    []core.KV // scan scratch
}

func newLadder(sys *system) *ladder {
	l := &ladder{spec: sys.spec, keyMax: sys.h.KeyMax(), stores: make([]core.Store, natPartitions)}
	inner := store.MustEngine(sys.spec.engine).NewNative(store.Tuning{})
	l.h = core.New(core.Config{
		Partitions: natPartitions, KeyMax: l.keyMax,
		NewStore: func(p int) core.Store {
			l.stores[p] = inner(p)
			return l.stores[p]
		},
	})
	pairs := make([]core.KV, len(sys.load))
	for i, k := range sys.load {
		pairs[i] = core.KV{Key: k, Value: loadValue(k)}
	}
	l.h.Build(pairs)
	return l
}

// scanDirect is core.Hybrid.ScanAppend's partition walk on bare stores.
func (l *ladder) scanDirect(from uint64, limit int) []core.KV {
	dst := l.kvs[:0]
	for p := l.h.Partition(max(from, 1)); p < len(l.stores) && len(dst) < limit; p++ {
		l.stores[p].Ascend(from, func(k, v uint64) bool {
			if len(dst) >= limit {
				return false
			}
			dst = append(dst, core.KV{Key: k, Value: v})
			return true
		})
	}
	l.kvs = dst
	return dst
}

// perOp times fn over n operations and returns ns per operation.
func perOp(n int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(max(n, 1))
}

// cdsStream replays ops straight on the partition stores — the bottom
// rung. The combiners are idle (nothing is published while a rung runs),
// so the calling goroutine is each store's only user.
func (l *ladder) cdsStream(ops []hds.Request) float64 {
	return perOp(len(ops), func() {
		for _, op := range ops {
			st := l.stores[l.h.Partition(op.Key)]
			switch op.Kind {
			case hds.Read:
				st.Get(op.Key)
			case hds.Insert:
				st.Put(op.Key, op.Value)
			case hds.Update:
				st.Update(op.Key, op.Value)
			case hds.Remove:
				st.Delete(op.Key)
			case hds.Scan:
				l.scanDirect(op.Key, int(op.Value))
			}
		}
	})
}

// cdsMicro measures the store's four calls on the stream's keys: Get of
// each, Put then Delete of as many fresh keys (from the upper half of each
// key-space stripe, which ycsb never generates), and 100-pair ascents.
func (l *ladder) cdsMicro(ops []hds.Request) (get, put, del, scanPerPair float64) {
	get = perOp(len(ops), func() {
		for _, op := range ops {
			l.stores[l.h.Partition(op.Key)].Get(op.Key)
		}
	})
	stripe := l.keyMax / 8
	fresh := func(i int) uint64 { return uint64(i%8)*stripe + stripe/2 + 1 + uint64(i/8) }
	put = perOp(len(ops), func() {
		for i := range ops {
			k := fresh(i)
			l.stores[l.h.Partition(k)].Put(k, k)
		}
	})
	del = perOp(len(ops), func() {
		for i := range ops {
			k := fresh(i)
			l.stores[l.h.Partition(k)].Delete(k)
		}
	})
	scans := max(len(ops)/32, 1)
	pairs := 0
	t0 := time.Now()
	for _, op := range ops[:scans] {
		pairs += len(l.scanDirect(op.Key, 100))
	}
	scanPerPair = float64(time.Since(t0).Nanoseconds()) / float64(max(pairs, 1))
	return get, put, del, scanPerPair
}

// coreApply is the blocking rung: one caller, one call in flight. Scans
// go through ScanAppend, the call the serve loop makes for them.
func (l *ladder) coreApply(ops []hds.Request) float64 {
	return perOp(len(ops), func() {
		for _, op := range ops {
			if op.Kind == hds.Scan {
				l.kvs = l.h.ScanAppend(l.kvs[:0], op.Key, int(op.Value))
				continue
			}
			l.h.Apply(op)
		}
	})
}

// coreBatch16 is the batch rung: one caller issuing runs of up to 16
// scalar ops through Batcher.Apply, scans as batch boundaries — the calls
// the serve loop makes for one client window.
func (l *ladder) coreBatch16(ops []hds.Request) float64 {
	b := l.h.NewBatcher(windowOps)
	out := make([]core.Outcome, windowOps)
	batch := make([]hds.Request, 0, windowOps)
	flush := func() {
		if len(batch) > 0 {
			b.Apply(batch, out[:len(batch)])
			batch = batch[:0]
		}
	}
	return perOp(len(ops), func() {
		for i, op := range ops {
			if op.Kind == hds.Scan {
				flush()
				l.kvs = l.h.ScanAppend(l.kvs[:0], op.Key, int(op.Value))
			} else {
				batch = append(batch, op)
			}
			if (i+1)%windowOps == 0 {
				flush()
			}
		}
		flush()
	})
}

// served runs the sliding-window client on one connection to a server
// over l.h and returns ns per op. pipe selects the in-memory connection
// (write deadlines off, as they have no kernel timer to arm) over loopback
// TCP.
func (l *ladder) served(ops []hds.Request, pipe bool) (float64, error) {
	rung := &system{spec: l.spec, h: l.h}
	var err error
	if pipe {
		cc, sc := memPipe()
		err = rung.serve(newOneConnListener(sc), server.Config{Store: l.spec.engine, WriteTimeout: -1},
			func() (net.Conn, error) { return cc, nil }, 1)
	} else {
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return 0, err
		}
		err = rung.serve(ln, server.Config{Store: l.spec.engine},
			func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }, 1)
	}
	if err != nil {
		rung.stopServer()
		return 0, err
	}
	var runErr error
	ns := perOp(len(ops), func() {
		runErr = rung.clients[0].run(ops, func(int, result) {}, nil)
	})
	if err := rung.stopServer(); err != nil && runErr == nil {
		runErr = err
	}
	return ns, runErr
}

// codec is the client's encode and decode work alone: AppendRequest for
// every op and ReadResponseBuf over the matching pre-encoded responses
// (scans answered with their full limit).
func codec(ops []hds.Request) (float64, error) {
	var wire []byte
	var pairs []server.Pair
	for _, op := range ops {
		if op.Kind == hds.Scan {
			for uint64(len(pairs)) < op.Value {
				pairs = append(pairs, server.Pair{Key: uint64(len(pairs)), Value: 1})
			}
			wire = server.AppendScanResponse(wire, server.StatusOK, pairs[:op.Value])
		} else {
			wire = server.AppendScalarResponse(wire, server.StatusOK, op.Value)
		}
	}
	r := bytes.NewReader(wire)
	var buf, scratch []byte
	var err error
	ns := perOp(len(ops), func() {
		for i := 0; i < len(ops); i += windowOps {
			buf = buf[:0]
			for _, op := range ops[i:min(i+windowOps, len(ops))] {
				buf = server.AppendRequest(buf, server.Request{Op: opCode(op.Kind), Key: op.Key, Value: op.Value})
			}
		}
		for _, op := range ops {
			var resp server.Response
			if resp, scratch, err = server.ReadResponseBuf(r, opCode(op.Kind), scratch); err != nil {
				return
			}
			if resp.Pairs != nil {
				server.PutPairs(resp.Pairs)
			}
		}
	})
	return ns, err
}

// echo is the socket floor: the sliding pattern's bytes — 16-request
// windows out, respBytes per window back, four windows in flight — over
// loopback TCP with no server behind it.
func echo(windows, respBytes int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	const reqBytes = requestFrame * windowOps
	peerDone := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			peerDone <- err
			return
		}
		defer nc.Close()
		in, out := make([]byte, reqBytes), make([]byte, respBytes)
		for w := 0; w < windows; w++ {
			if _, err := io.ReadFull(nc, in); err != nil {
				peerDone <- err
				return
			}
			if _, err := nc.Write(out); err != nil {
				peerDone <- err
				return
			}
		}
		peerDone <- nil
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	out, in := make([]byte, reqBytes), make([]byte, respBytes)
	var ioErr error
	ns := perOp(windows*windowOps, func() {
		sent := 0
		for ; sent < min(windowsInFlight, windows); sent++ {
			if _, ioErr = nc.Write(out); ioErr != nil {
				return
			}
		}
		for recvd := 0; recvd < windows; recvd++ {
			if _, ioErr = io.ReadFull(nc, in); ioErr != nil {
				return
			}
			if sent < windows {
				if _, ioErr = nc.Write(out); ioErr != nil {
					return
				}
				sent++
			}
		}
	})
	if ioErr != nil {
		return 0, ioErr
	}
	return ns, <-peerDone
}

// histMean is Σsum/Σcount over the histograms whose name ends in suffix.
func histMean(hists []metrics.HistSnapshot, suffix string) float64 {
	var sum, count uint64
	for _, h := range hists {
		if strings.HasSuffix(h.Name, suffix) {
			sum += h.Sum
			count += h.Count
		}
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// Units of the per-layer metrics.
const (
	unitNs    = "ns"
	unitUs    = "us"
	unitCount = "count"
)

// runNativeTraced is the per-layer run of a native workload: warm-up, two
// plain and two traced segments on the workload's own system, the oracle,
// then the ladder on a second map.
func runNativeTraced(rep *report, spec nativeSpec, o options) {
	segments := 2 * tracedSegments
	rep.Segments = segments

	segOps, _ := spec.sized(o)
	tr := newTracer((1 + segments) * segOps / windowOps)
	sys, err := setUp(spec, o, segments+ladderSpareSegments, tr)
	if err != nil {
		rep.failf("set-up: %v", err)
		return
	}
	defer sys.tearDown()
	rep.set("ycsb.gen_ns_per_op", metric{Value: sys.genSeconds * 1e9 / float64(sys.genOps), Unit: unitNs, Samples: sys.genOps})

	var executed [][]hds.Request
	warm := sys.segment(0)
	sys.runSegment(rep, warm, true, nil)
	executed = append(executed, warm...)

	// measure runs tracedSegments segments from first and returns each
	// one's throughput plus the totals.
	measure := func(first int, obs []*callerTrace) (thr []float64, ops int, cpu float64) {
		for i := first; i < first+tracedSegments; i++ {
			segOps := sys.segment(i)
			res := sys.runSegment(rep, segOps, false, obs)
			executed = append(executed, segOps...)
			thr = append(thr, float64(res.ops)/res.wall.Seconds())
			ops += res.ops
			cpu += res.cpu
		}
		return thr, ops, cpu
	}
	plain, plainOps, plainCPU := measure(1, nil)

	perCall := sys.segOps / windowOps
	if spec.how == viaBlocking {
		perCall = sys.segOps
	}
	callers := make([]*callerTrace, natClients)
	for c := range callers {
		callers[c] = tr.newCaller(c, tracedSegments*perCall)
	}
	tr.on.Store(true)
	traced, tracedOps, _ := measure(1+tracedSegments, callers)
	tr.on.Store(false)

	un := sys.unloadedStream(segments)
	lat := sys.runUnloaded(rep, un)
	executed = append(executed, un)
	rep.set("lat_unloaded_us", metric{Value: median(lat), Unit: unitUs, Segments: lat, Samples: len(un)})

	e2e := 1e9 / median(plain)
	rep.set("e2e.ns_per_op", metric{Value: e2e, Unit: unitNs, Segments: plain})
	rep.set("trace.overhead_ratio", metric{Value: median(plain) / median(traced), Unit: "ratio", Segments: traced})

	// The oracle drains the server, so every counter and every
	// interposer total read below is final.
	sys.finalChecks(rep, executed)
	reportCounters(rep, sys)
	respBytesPerWindow := reportTraced(rep, tr, callers, tracedOps, spec.how == viaServer)
	rings := tr.rings(callers)
	if err := writeChrome(filepath.Join(o.outDir, "trace-"+rep.Workload+".json"), rings); err != nil {
		rep.failf("trace file: %v", err)
	}
	reportLadder(rep, sys, segments, e2e, plainCPU/float64(plainOps)*1e9, respBytesPerWindow)
}

// reportCounters reports the runtime's own instruments.
func reportCounters(rep *report, sys *system) {
	coreCounters, coreHists := sys.h.ExportMetrics()
	var coreOps uint64
	for p := 0; p < natPartitions; p++ {
		coreOps += coreCounters[fmt.Sprintf("core/p%d/ops", p)]
	}
	rep.set("core.ops", metric{Value: float64(coreOps), Unit: unitCount})
	rep.set("core.combine_batch_mean", metric{Value: histMean(coreHists, "/batch"), Unit: unitCount})
	rep.set("core.mailbox_depth_mean", metric{Value: histMean(coreHists, "/mailbox"), Unit: unitCount})
	if sys.srv == nil {
		return
	}
	sc, hists := sys.srv.ExportMetrics()
	rep.set("server.batch_mean", metric{Value: histMean(hists, "server/batch"), Unit: unitCount})
	rep.set("server.requests", metric{Value: float64(sc["server/requests"]), Unit: unitCount})
	rep.set("server.responses", metric{Value: float64(sc["server/responses"]), Unit: unitCount})
	rep.set("server.rejected", metric{Value: float64(sc["server/rejected"]), Unit: unitCount})
	rep.set("server.bad_requests", metric{Value: float64(sc["server/bad_requests"]), Unit: unitCount})
	rep.set("server.scan_pairs_per_op", metric{
		Value: float64(sc["server/scan_pairs"]) / float64(max(sc["server/requests"], 1)), Unit: unitCount,
	})
}

// rings lists every span ring of the run: stores, callers, connections.
func (t *tracer) rings(callers []*callerTrace) []*spanRing {
	var rings []*spanRing
	for _, st := range t.stores {
		rings = append(rings, st.ring)
	}
	for _, c := range callers {
		rings = append(rings, c.ring)
	}
	for _, c := range t.conns {
		rings = append(rings, c.readRing, c.writeRing)
	}
	return rings
}

// reportTraced reports the interposers' totals over the traced segments
// (they are quiescent by now). For a served workload it returns the mean
// response bytes per client window, which sizes the echo rung.
func reportTraced(rep *report, tr *tracer, callers []*callerTrace, tracedOps int, served bool) (respBytesPerWindow int) {
	perOp := func(nanos int64) float64 { return float64(nanos) / 1e3 / float64(max(tracedOps, 1)) }
	var cdsCalls uint64
	var cdsBusy int64
	for _, st := range tr.stores {
		cdsCalls += st.calls
		cdsBusy += st.busy
	}
	rep.set("cds.calls", metric{Value: float64(cdsCalls), Unit: unitCount})
	rep.set("cds.busy_us_per_op", metric{Value: perOp(cdsBusy), Unit: unitUs, Samples: tracedOps})

	var rtts []float64
	var sendNs, recvNs int64
	for _, c := range callers {
		rtts = append(rtts, c.rtts...)
		sendNs += c.sendNs
		recvNs += c.recvNs
	}
	sort.Float64s(rtts)
	rep.set("loadgen.rtt_p50_us", metric{Value: percentile(rtts, 50), Unit: unitUs, Samples: len(rtts)})
	rep.set("loadgen.rtt_p99_us", metric{Value: percentile(rtts, 99), Unit: unitUs, Samples: len(rtts)})
	rep.set("loadgen.rtt_samples", metric{Value: float64(len(rtts)), Unit: unitCount})
	if !served {
		return 0
	}

	var reads, writes uint64
	var readWait, writeBusy, in, out, resp int64
	var windowSum float64
	var windows int
	for _, c := range tr.conns {
		reads += c.reads
		writes += c.writes
		readWait += c.readWait
		writeBusy += c.writeBusy
		in += c.tracedIn
		out += c.tracedOut
		resp += c.tracedResp
		mean, n := c.windowMeanNs()
		windowSum += mean * float64(n)
		windows += n
	}
	windowUs := windowSum / float64(max(windows, 1)) / 1e3
	rep.set("socket.reads", metric{Value: float64(reads), Unit: unitCount})
	rep.set("socket.writes", metric{Value: float64(writes), Unit: unitCount})
	rep.set("socket.ops_per_write", metric{Value: float64(resp) / float64(max(writes, 1)), Unit: unitCount})
	rep.set("socket.read_wait_us_per_op", metric{Value: perOp(readWait), Unit: unitUs, Samples: tracedOps})
	rep.set("socket.write_us_per_op", metric{Value: perOp(writeBusy), Unit: unitUs, Samples: tracedOps})
	rep.set("socket.bytes_in", metric{Value: float64(in), Unit: "bytes"})
	rep.set("socket.bytes_out", metric{Value: float64(out), Unit: "bytes"})
	rep.set("loadgen.send_us_per_op", metric{Value: perOp(sendNs), Unit: unitUs, Samples: tracedOps})
	rep.set("loadgen.recv_wait_us_per_op", metric{Value: perOp(recvNs), Unit: unitUs, Samples: tracedOps})
	// Server plus core self time per window: the server-side
	// first-read→last-write interval minus the cds spans inside it.
	rep.set("server.window_us", metric{Value: windowUs, Unit: unitUs, Samples: windows})
	rep.set("server.core_self_us_per_window", metric{Value: windowUs - perOp(cdsBusy)*windowOps, Unit: unitUs, Samples: windows})
	return int(out / max(resp/windowOps, 1))
}

// Each rung replays a quarter of a segment's per-caller ops. A write mix
// gives every rung its own unexecuted slice of caller 0's stream (so
// inserts stay fresh), which takes ladderSpareSegments more segments of
// stream; a read-only mix replays the head of its one segment.
const (
	rungShare           = 4
	ladderRungs         = 6
	ladderSpareSegments = (ladderRungs + rungShare - 1) / rungShare
)

// reportLadder runs the rungs on a second map with the same load set and
// reports each with its self time. e2e and cpuNs are the workload's wall
// and process-CPU ns per op over its plain segments.
func reportLadder(rep *report, sys *system, segments int, e2e, cpuNs float64, respBytesPerWindow int) {
	l := newLadder(sys)
	defer l.h.Close()
	n := sys.segOps / rungShare
	rung := func(k int) []hds.Request {
		ops := sys.streams[0]
		if sys.readOnly {
			return ops[:n]
		}
		return ops[(1+segments)*sys.segOps+k*n:][:n]
	}
	cds := l.cdsStream(rung(0))
	get, put, del, scanPair := l.cdsMicro(rung(0))
	apply := l.coreApply(rung(1))
	batch := l.coreBatch16(rung(2))
	rep.Attempted += int64(6 * n)
	rep.set("cds.stream_ns_per_op", metric{Value: cds, Unit: unitNs, Samples: n})
	rep.set("cds.get_ns", metric{Value: get, Unit: unitNs, Samples: n})
	rep.set("cds.put_ns", metric{Value: put, Unit: unitNs, Samples: n})
	rep.set("cds.delete_ns", metric{Value: del, Unit: unitNs, Samples: n})
	rep.set("cds.scan_ns_per_pair", metric{Value: scanPair, Unit: unitNs})
	// The store's share of the processor time an op costs end to end.
	rep.set("cds.share_of_op", metric{Value: cds / cpuNs, Unit: "ratio"})
	rep.set("core.apply_ns", metric{Value: apply, Unit: unitNs, Samples: n})
	rep.set("core.hop_self_ns", metric{Value: apply - cds, Unit: unitNs})
	rep.set("core.batch16_ns_per_op", metric{Value: batch, Unit: unitNs, Samples: n})
	rep.set("core.batch_self_ns", metric{Value: batch - cds, Unit: unitNs})

	// top is the ladder's highest rung for this workload's discipline;
	// what separates it from the end-to-end figure is the gap.
	top := batch
	switch sys.spec.how {
	case viaBlocking:
		top = apply
	case viaServer:
		pipe, err := l.served(rung(3), true)
		if err != nil {
			rep.failf("pipe rung: %v", err)
		}
		tcp, err := l.served(rung(4), false)
		if err != nil {
			rep.failf("tcp rung: %v", err)
		}
		cdc, err := codec(rung(5))
		if err != nil {
			rep.failf("codec rung: %v", err)
		}
		floor, err := echo(n/windowOps, max(respBytesPerWindow, 1))
		if err != nil {
			rep.failf("echo rung: %v", err)
		}
		rep.Attempted += int64(2 * n)
		rep.set("server.pipe_ns_per_op", metric{Value: pipe, Unit: unitNs, Samples: n})
		rep.set("server.loop_self_ns", metric{Value: pipe - batch, Unit: unitNs})
		rep.set("server.codec_ns_per_op", metric{Value: cdc, Unit: unitNs, Samples: n})
		rep.set("socket.tcp_ns_per_op", metric{Value: tcp, Unit: unitNs, Samples: n})
		rep.set("socket.self_ns", metric{Value: tcp - pipe, Unit: unitNs})
		rep.set("socket.echo_ns_per_op", metric{Value: floor, Unit: unitNs, Samples: n})
		top = tcp
	}
	rep.set("loadgen.gap_ns", metric{Value: e2e - top, Unit: unitNs})
}
