package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hybrids/internal/cds"
	"hybrids/internal/core"
	"hybrids/internal/hds"
	"hybrids/internal/server"
)

func TestMedianQuartilesPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(vs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread(vs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {99, 10}, {10, 1}, {100, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// newTestServer serves a small btree map over loopback TCP.
func newTestServer(t *testing.T, keys int) (*core.Hybrid, string) {
	t.Helper()
	h := core.New(core.Config{Partitions: 4, KeyMax: 1 << 16})
	pairs := make([]core.KV, keys)
	for i := range pairs {
		k := uint64(i + 1)
		pairs[i] = core.KV{Key: k, Value: loadValue(k)}
	}
	h.Build(pairs)
	srv := server.New(h, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		h.Close()
	})
	return h, ln.Addr().String()
}

func TestSlidingClientBoundsInFlightAndLosesNothing(t *testing.T) {
	const keys = 500
	_, addr := newTestServer(t, keys)
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ops := make([]hds.Request, 1003) // not a whole number of windows
	for i := range ops {
		ops[i] = hds.Request{Kind: hds.Read, Key: uint64(i%keys + 1)}
	}
	sc := &slidingClient{c: c}
	next := 0
	o := &oracle{strict: true}
	err = sc.run(ops, func(i int, r result) {
		if i != next {
			t.Errorf("response %d delivered as %d", next, i)
		}
		next++
		o.check(ops[i], r)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next != len(ops) {
		t.Errorf("%d responses for %d ops", next, len(ops))
	}
	if o.failed != 0 {
		t.Errorf("oracle: %v", o.failures)
	}
	if sc.peak > maxInFlight || sc.peak < maxInFlight {
		t.Errorf("peak in flight = %d, want exactly %d", sc.peak, maxInFlight)
	}
}

// TestDroppedResponseIsAnError: a peer that answers all but the last
// request and hangs up must surface as an error, not as a short count.
func TestDroppedResponseIsAnError(t *testing.T) {
	cc, sc := memPipe()
	const n = 40
	go func() {
		defer sc.Close()
		frame := make([]byte, requestFrame)
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(sc, frame); err != nil {
				return
			}
			if i < n-1 {
				sc.Write(server.AppendScalarResponse(nil, server.StatusOK, 7))
			}
		}
	}()
	ops := make([]hds.Request, n)
	for i := range ops {
		ops[i] = hds.Request{Kind: hds.Read, Key: uint64(i + 1)}
	}
	got := 0
	err := (&slidingClient{c: server.NewClient(cc)}).run(ops, func(int, result) { got++ }, nil)
	if err == nil {
		t.Fatalf("run returned nil after %d of %d responses", got, n)
	}
	if got != n-1 {
		t.Errorf("delivered %d responses before the error, want %d", got, n-1)
	}
}

func TestOracleCatchesWrongResults(t *testing.T) {
	read := hds.Request{Kind: hds.Read, Key: 77}
	cases := []struct {
		name string
		o    oracle
		op   hds.Request
		r    result
		bad  bool
	}{
		{"right value", oracle{strict: true}, read, result{ok: true, value: loadValue(77)}, false},
		{"wrong value", oracle{strict: true}, read, result{ok: true, value: loadValue(77) + 1}, true},
		{"wrong value outside warm-up", oracle{}, read, result{ok: true, value: 1}, false},
		{"miss with nothing removed", oracle{}, read, result{}, true},
		{"miss in a removing mix", oracle{hasRemoves: true}, read, result{}, false},
		{"warm-up miss of a never-removed key", oracle{hasRemoves: true, strict: true, warmRemoves: map[uint64]int{}}, read, result{}, true},
		{"warm-up miss of a removed key", oracle{hasRemoves: true, strict: true, warmRemoves: map[uint64]int{77: 1}}, read, result{}, false},
		{"rejected", oracle{}, read, result{rejected: true}, true},
		{"insert found the key", oracle{}, hds.Request{Kind: hds.Insert, Key: 5}, result{}, true},
		{"sole remove missed", oracle{hasRemoves: true, strict: true, warmRemoves: map[uint64]int{9: 1}}, hds.Request{Kind: hds.Remove, Key: 9}, result{}, true},
		{"scan ok", oracle{strict: true}, hds.Request{Kind: hds.Scan, Key: 3, Value: 2},
			result{ok: true, pairs: []server.Pair{{Key: 3, Value: loadValue(3)}, {Key: 8, Value: 1}}}, false},
		{"scan descending", oracle{strict: true}, hds.Request{Kind: hds.Scan, Key: 3, Value: 2},
			result{ok: true, pairs: []server.Pair{{Key: 3, Value: loadValue(3)}, {Key: 2, Value: 1}}}, true},
		{"scan over limit", oracle{strict: true}, hds.Request{Kind: hds.Scan, Key: 3, Value: 1},
			result{ok: true, pairs: []server.Pair{{Key: 3, Value: loadValue(3)}, {Key: 8, Value: 1}}}, true},
		{"scan starts late", oracle{strict: true}, hds.Request{Kind: hds.Scan, Key: 3, Value: 2},
			result{ok: true, pairs: []server.Pair{{Key: 4, Value: 1}}}, true},
	}
	for _, c := range cases {
		c.o.check(c.op, c.r)
		if (c.o.failed != 0) != c.bad {
			t.Errorf("%s: failed=%d, want failure=%v (%v)", c.name, c.o.failed, c.bad, c.o.failures)
		}
	}
}

func TestFinalStateOracle(t *testing.T) {
	h := core.New(core.Config{Partitions: 4, KeyMax: 1 << 10})
	defer h.Close()
	load := []uint64{10, 20, 30, 700}
	for _, k := range load {
		h.Put(k, k)
	}
	ops := []hds.Request{
		{Kind: hds.Insert, Key: 40, Value: 1}, {Kind: hds.Remove, Key: 20},
		{Kind: hds.Remove, Key: 20}, {Kind: hds.Read, Key: 10},
	}
	for _, op := range ops {
		h.Apply(op)
	}
	want := expectedKeys(load, ops)
	if len(want) != 4 || want[0] != 10 || want[1] != 30 || want[2] != 40 || want[3] != 700 {
		t.Fatalf("expectedKeys = %v, want [10 30 40 700]", want)
	}
	if err := checkFinalState(h, want); err != nil {
		t.Errorf("matching state rejected: %v", err)
	}
	h.Delete(30) // an op the streams do not contain
	if err := checkFinalState(h, want); err == nil {
		t.Error("a missing key went unnoticed")
	}
	h.Put(31, 1) // same count, different key
	if err := checkFinalState(h, want); err == nil {
		t.Error("a swapped key went unnoticed")
	}
}

func TestStoreDecoratorReturnsResultsUnchanged(t *testing.T) {
	for _, on := range []bool{false, true} {
		tr := newTracer(0)
		tr.on.Store(on)
		plain := cds.NewBTree()
		wrapped := tr.wrapStores(func(int) core.Store { return cds.NewBTree() })(0)
		type step struct {
			kind     hds.Kind
			key, val uint64
		}
		steps := []step{
			{hds.Insert, 5, 50}, {hds.Insert, 5, 51}, {hds.Insert, 9, 90}, {hds.Read, 5, 0}, {hds.Read, 6, 0},
			{hds.Update, 9, 91}, {hds.Update, 7, 1}, {hds.Remove, 5, 0}, {hds.Remove, 5, 0}, {hds.Read, 9, 0},
		}
		for i, s := range steps {
			var a, b [2]uint64
			flag := func(ok bool) uint64 {
				if ok {
					return 1
				}
				return 0
			}
			for j, st := range []core.Store{plain, wrapped} {
				out := &a
				if j == 1 {
					out = &b
				}
				switch s.kind {
				case hds.Insert:
					out[1] = flag(st.Put(s.key, s.val))
				case hds.Update:
					out[1] = flag(st.Update(s.key, s.val))
				case hds.Remove:
					out[1] = flag(st.Delete(s.key))
				case hds.Read:
					v, ok := st.Get(s.key)
					out[0], out[1] = v, flag(ok)
				}
			}
			if a != b {
				t.Errorf("on=%v step %d (%v key %d): plain %v, decorated %v", on, i, s.kind, s.key, a, b)
			}
		}
		var got []uint64
		wrapped.Ascend(0, func(k, v uint64) bool { got = append(got, k, v); return true })
		if len(got) != 2 || got[0] != 9 || got[1] != 91 || wrapped.Len() != plain.Len() {
			t.Errorf("on=%v: ascend = %v len %d, want [9 91] len %d", on, got, wrapped.Len(), plain.Len())
		}
		ts := wrapped.(*tracedStore)
		if want := uint64(len(steps) + 1); on && ts.calls != want {
			t.Errorf("decorator counted %d calls, want %d", ts.calls, want)
		}
		if !on && (ts.calls != 0 || ts.ring.n != 0) {
			t.Errorf("decorator recorded %d calls while off", ts.calls)
		}
	}
}

func TestConnWrapperPassesBytesAndCountsFrames(t *testing.T) {
	tr := newTracer(8)
	tr.on.Store(true)
	cc, sc := memPipe()
	ln := tr.wrapListener(newOneConnListener(sc))
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	tc := nc.(*tracedConn)

	// Inbound: two windows of requests, delivered in awkward pieces.
	var in []byte
	for i := 0; i < 2*windowOps; i++ {
		in = server.AppendRequest(in, server.Request{Op: server.OpGet, Key: uint64(i + 1)})
	}
	go func() {
		for _, piece := range [][]byte{in[:5], in[5:400], in[400:]} {
			cc.Write(piece)
		}
	}()
	got := make([]byte, len(in))
	if _, err := io.ReadFull(tc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, in) {
		t.Error("wrapper changed inbound bytes")
	}
	if tc.bytesIn != int64(len(in)) || tc.tracedFrom != 0 || tc.firstRead[0] == 0 || tc.firstRead[1] == 0 {
		t.Errorf("read side: bytesIn=%d tracedFrom=%d firstRead=%v", tc.bytesIn, tc.tracedFrom, tc.firstRead[:2])
	}

	// Outbound: scalar and scan frames, split mid-header and mid-body.
	var out []byte
	for i := 0; i < 2*windowOps-1; i++ {
		out = server.AppendScalarResponse(out, server.StatusOK, uint64(i))
	}
	out = server.AppendScanResponse(out, server.StatusOK, []server.Pair{{Key: 1, Value: 2}, {Key: 3, Value: 4}})
	echoed := make(chan []byte, 1)
	go func() {
		b := make([]byte, len(out))
		io.ReadFull(cc, b)
		echoed <- b
	}()
	for _, piece := range [][]byte{out[:2], out[2:30], out[30 : len(out)-7], out[len(out)-7:]} {
		if n, err := tc.Write(piece); err != nil || n != len(piece) {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	if !bytes.Equal(<-echoed, out) {
		t.Error("wrapper changed outbound bytes")
	}
	if tc.responses != 2*windowOps || tc.tracedResp != 2*windowOps || tc.need != 0 || tc.hdrN != 0 {
		t.Errorf("counted %d responses (need=%d hdrN=%d), want %d", tc.responses, tc.need, tc.hdrN, 2*windowOps)
	}
	if tc.lastWrite[0] == 0 || tc.lastWrite[1] == 0 {
		t.Errorf("lastWrite = %v, want both windows stamped", tc.lastWrite[:2])
	}
	if mean, n := tc.windowMeanNs(); n != 2 || mean <= 0 {
		t.Errorf("windowMeanNs = %v over %d windows", mean, n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	thr := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "lat_unloaded_us", Better: "lower", Bound: 0.10}
	layer := metricDef{Name: "cds.get_ns", Better: "lower"}
	cycles := metricDef{Name: "sim_cycles_per_op", Better: "lower", Bound: exactBound}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name      string
		d         metricDef
		a, b      []float64
		symmetric bool
		want      string
	}{
		{"same", thr, steady, steady, false, verdictOK},
		{"throughput fell 20%", thr, steady, []float64{80, 81, 79, 80, 82}, false, verdictRegressed},
		{"throughput rose 20%", thr, steady, []float64{120, 121, 119, 120, 122}, false, verdictOK},
		{"rise fails a selfcheck", thr, steady, []float64{120, 121, 119, 120, 122}, true, verdictRegressed},
		{"latency rose 20%", lat, steady, []float64{120, 121, 119, 120, 122}, false, verdictRegressed},
		{"latency fell 5%", lat, steady, []float64{95, 96, 94, 95, 97}, false, verdictOK},
		{"noisy and overlapping", lat, []float64{100, 70, 130, 100, 100}, []float64{101, 72, 128, 99, 103}, false, verdictUnresolved},
		{"noisy but every run better", lat, []float64{100, 70, 130, 100, 100}, []float64{50, 40, 60, 45, 55}, false, verdictOK},
		{"per-layer has no bound", layer, steady, []float64{300, 300, 300}, false, verdictNoBound},
		{"exact and equal", cycles, []float64{360.5, 361, 362}, []float64{360.5, 361, 362}, false, verdictOK},
		{"exact and a hair worse", cycles, []float64{360.5, 361, 362}, []float64{360.5, 361.001, 362}, false, verdictRegressed},
		{"exact and better", cycles, []float64{360.5, 361, 362}, []float64{350, 351, 352}, false, verdictOK},
		{"exact, better fails a selfcheck", cycles, []float64{360.5, 361, 362}, []float64{350, 351, 352}, true, verdictRegressed},
		{"error rate rose from 0", metricDef{Name: "error_rate", Better: "lower", Bound: exactBound}, []float64{0, 0, 0}, []float64{0, 1e-6, 1e-6}, false, verdictRegressed},
	}
	for _, c := range cases {
		if _, got := judge(c.d, c.a, c.b, c.symmetric); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// End to end through files.
	dir := t.TempDir()
	write := func(name string, thr float64) string {
		var buf bytes.Buffer
		for i := 0; i < 3; i++ {
			rep := report{Workload: "served-read", Correct: true, Metrics: map[string]metric{
				"throughput_ops_s": {Value: thr + float64(i), Unit: "ops/s"},
			}}
			line, _ := json.Marshal(rep)
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.jsonl", 1000), write("b.jsonl", 700)
	var out bytes.Buffer
	if code := compareMain([]string{a, b}, &out); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("compare of a 30%% drop: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{a, a}, &out); code != 0 {
		t.Errorf("compare of a set with itself: exit %d\n%s", code, out.String())
	}
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if specMain(&buf) != 0 {
		t.Fatal("spec did not render")
	}
	json.Unmarshal(buf.Bytes(), &want)
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; regenerate it with `hybridsbench spec > BENCHMARK.json`")
	}
	// The driver's limits.
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (%s): duplicate or over the driver's name/unit limits", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for _, d := range driverDeclared(false) {
		if d.Bound <= 0 || d.Bound > 0.25 || d.On != kAll {
			t.Errorf("end-to-end %s: bound %v on %b; must be bounded in (0, 0.25] and defined on every workload", d.Name, d.Bound, d.On)
		}
	}
	for _, wd := range workloads {
		if len(wd.Why) > 200 || strings.Contains(wd.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", wd.Name, len(wd.Why))
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 128", len(perLayer))
	}
}

// TestSetupOnly covers the mode a run re-executes itself in for its extra
// setup_s samples: one set-up, its duration on standard output.
func TestSetupOnly(t *testing.T) {
	for _, name := range []string{"served-scan", "embedded-mix", "sim-grid"} {
		wd, _ := findWorkload(name)
		var out bytes.Buffer
		if code := setupOnlyMain(&out, wd, options{workload: name, seed: 7, seconds: 2, shrink: 100}); code != 0 {
			t.Fatalf("%s: exit %d", name, code)
		}
		if secs, err := strconv.ParseFloat(strings.TrimSpace(out.String()), 64); err != nil || secs <= 0 {
			t.Errorf("%s: printed %q, want a positive number of seconds", name, out.String())
		}
	}
}

// TestSmokeAllWorkloads runs every workload at 1/100 size in both modes and
// asserts that each metric declared for it is printed exactly once with its
// unit, that off-path layers are absent from the report, and that the
// driver's final line carries every key BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, trace := range []bool{false, true} {
		for _, wd := range workloads {
			o := options{workload: wd.Name, seed: 7, seconds: 2, trace: trace, shrink: 100, outDir: t.TempDir()}
			rep := run(wd, o)
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failures=%v", wd.Name, trace, rep.Correct, rep.Attempted, rep.Failures)
			}
			var out bytes.Buffer
			if err := emit(&out, wd, rep, o); err != nil {
				t.Errorf("%s trace=%v: %v", wd.Name, trace, err)
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			printed := map[string]int{}
			units := map[string]string{}
			for _, line := range lines[:len(lines)-1] {
				f := strings.Fields(line)
				if len(f) >= 4 && f[0] == wd.Name {
					printed[f[1]]++
					units[f[1]] = f[3]
				}
			}
			for _, d := range declared(trace) {
				want := 0
				if d.On&wd.Kind != 0 {
					want = 1
				}
				if printed[d.Name] != want || (want == 1 && units[d.Name] != d.Unit) {
					t.Errorf("%s trace=%v: %s printed %d times with unit %q, want %d with %q",
						wd.Name, trace, d.Name, printed[d.Name], units[d.Name], want, d.Unit)
				}
			}
			var final struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", wd.Name, trace, err)
			}
			if len(final.Metrics) != len(driverDeclared(trace)) {
				t.Errorf("%s trace=%v: final line has %d metrics, BENCHMARK.json declares %d", wd.Name, trace, len(final.Metrics), len(driverDeclared(trace)))
			}
			for _, d := range driverDeclared(trace) {
				m, ok := final.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: final line lacks %s [%s]", wd.Name, trace, d.Name, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", wd.Name, d.Name, m.Value)
				}
			}
		}
	}
}
