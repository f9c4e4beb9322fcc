package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hybrids/internal/core"
)

// newTestServer starts a server over a fresh hybrid map on an ephemeral
// loopback port. Cleanup shuts the server down and closes the map
// (Shutdown is idempotent, so tests may also drain explicitly).
func newTestServer(t *testing.T, cfg Config, hcfg core.Config) (*Server, *core.Hybrid, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return serveTestListener(t, ln, cfg, hcfg)
}

// serveTestListener is newTestServer over a caller-made listener.
func serveTestListener(t *testing.T, ln net.Listener, cfg Config, hcfg core.Config) (*Server, *core.Hybrid, string) {
	t.Helper()
	h := core.New(hcfg)
	s := New(h, cfg)
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		h.Close()
	})
	return s, h, ln.Addr().String()
}

// statValue extracts one counter from a STATS payload.
func statValue(t *testing.T, text []byte, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(string(text), "\n") {
		var n string
		var v uint64
		if _, err := fmt.Sscanf(line, "%s %d", &n, &v); err == nil && n == name {
			return v
		}
	}
	t.Fatalf("counter %q not in stats:\n%s", name, text)
	return 0
}

// TestServerBasicOps exercises every protocol operation and status
// through the convenience client: hits, misses, scans, stats, and the
// BadRequest paths (reserved key 0, out-of-range key, unknown op).
func TestServerBasicOps(t *testing.T) {
	_, _, addr := newTestServer(t, Config{Window: 4}, core.Config{Partitions: 4, KeyMax: 1 << 16})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if ok, err := c.Put(10, 100); err != nil || !ok {
		t.Fatalf("Put(10) = %v, %v", ok, err)
	}
	if ok, err := c.Put(10, 200); err != nil || ok {
		t.Fatalf("duplicate Put(10) = %v, %v, want miss", ok, err)
	}
	if v, ok, err := c.Get(10); err != nil || !ok || v != 100 {
		t.Fatalf("Get(10) = %d, %v, %v", v, ok, err)
	}
	if _, ok, err := c.Get(11); err != nil || ok {
		t.Fatalf("Get(11) should miss, got ok=%v err=%v", ok, err)
	}
	if ok, err := c.Update(10, 111); err != nil || !ok {
		t.Fatalf("Update(10) = %v, %v", ok, err)
	}
	if ok, err := c.Update(12, 1); err != nil || ok {
		t.Fatalf("Update(12) should miss, got %v, %v", ok, err)
	}
	if ok, err := c.Delete(10); err != nil || !ok {
		t.Fatalf("Delete(10) = %v, %v", ok, err)
	}
	if ok, err := c.Delete(10); err != nil || ok {
		t.Fatalf("second Delete(10) should miss, got %v, %v", ok, err)
	}

	for i := uint64(1); i <= 8; i++ {
		if ok, err := c.Put(i*100, i); err != nil || !ok {
			t.Fatalf("Put(%d) = %v, %v", i*100, ok, err)
		}
	}
	pairs, err := c.Scan(0, 100)
	if err != nil || len(pairs) != 8 {
		t.Fatalf("Scan = %d pairs, %v, want 8", len(pairs), err)
	}
	for i, p := range pairs {
		if want := uint64(i+1) * 100; p.Key != want || p.Value != uint64(i+1) {
			t.Fatalf("scan pair %d = %+v", i, p)
		}
	}
	if pairs, err = c.Scan(250, 2); err != nil || len(pairs) != 2 || pairs[0].Key != 300 {
		t.Fatalf("bounded Scan = %+v, %v", pairs, err)
	}

	// BadRequest paths: the reserved key 0, a key at/above KeyMax, and an
	// unknown op code. The connection survives all three.
	for _, r := range []Request{
		{Op: OpGet, Key: 0},
		{Op: OpPut, Key: 1 << 16, Value: 1},
		{Op: 99, Key: 5},
	} {
		if err := c.Send(r); err != nil {
			t.Fatalf("send %+v: %v", r, err)
		}
		resp, err := c.Recv()
		if err != nil || resp.Status != StatusBadRequest {
			t.Fatalf("%+v -> %+v, %v, want BadRequest", r, resp, err)
		}
	}

	text, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if got := statValue(t, text, "server/bad_requests"); got != 3 {
		t.Errorf("server/bad_requests = %d, want 3", got)
	}
	if got := statValue(t, text, "server/conns_accepted"); got != 1 {
		t.Errorf("server/conns_accepted = %d, want 1", got)
	}
	if statValue(t, text, "server/requests") == 0 {
		t.Error("server/requests = 0")
	}
}

// TestServerPipelinedBatch sends a large pipelined burst in one flush
// and checks every in-order response, then that the batch accounting is
// conserved: coalesced batch sizes must sum to the scalar request count.
func TestServerPipelinedBatch(t *testing.T) {
	_, _, addr := newTestServer(t, Config{Window: 8}, core.Config{Partitions: 4, KeyMax: 1 << 16})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const n = 400
	reqs := make([]Request, 0, 2*n)
	for i := uint64(1); i <= n; i++ {
		reqs = append(reqs, Request{Op: OpPut, Key: i, Value: i * 2})
	}
	for i := uint64(1); i <= n; i++ {
		reqs = append(reqs, Request{Op: OpGet, Key: i})
	}
	resps, err := c.Pipeline(reqs)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	for i, resp := range resps {
		if resp.Status != StatusOK {
			t.Fatalf("response %d status %d", i, resp.Status)
		}
		if i >= n && resp.Value != uint64(i-n+1)*2 {
			t.Fatalf("get %d value %d", i-n+1, resp.Value)
		}
	}
	text, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if sum := statValue(t, text, "server/batch/sum"); sum != 2*n {
		t.Errorf("server/batch/sum = %d, want %d", sum, 2*n)
	}
	if count := statValue(t, text, "server/batch/count"); count == 0 || count > 2*n {
		t.Errorf("server/batch/count = %d out of range", count)
	}
}

// TestServerConcurrentClientEquivalence runs several pipelining clients
// over disjoint key ranges, each checking every response against a
// sequential model map (read-your-writes holds per key range), then
// compares the final server state against the union of the models via
// the direct core API.
func TestServerConcurrentClientEquivalence(t *testing.T) {
	s, h, addr := newTestServer(t, Config{Window: 8},
		core.Config{Partitions: 4, KeyMax: 1 << 16})
	const clients = 4
	const span = 8192
	const rounds = 60
	const perRound = 32

	models := make([]map[uint64]uint64, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cl) + 1))
			base := uint64(cl*span) + 1
			model := map[uint64]uint64{}
			models[cl] = model
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for round := 0; round < rounds; round++ {
				reqs := make([]Request, perRound)
				type expect struct {
					ok    bool
					value uint64
				}
				want := make([]expect, perRound)
				for i := range reqs {
					key := base + uint64(rng.Intn(span))
					old, present := model[key]
					switch rng.Intn(4) {
					case 0:
						reqs[i] = Request{Op: OpGet, Key: key}
						want[i] = expect{ok: present, value: old}
					case 1:
						v := rng.Uint64()%1000 + 1
						reqs[i] = Request{Op: OpPut, Key: key, Value: v}
						want[i] = expect{ok: !present}
						if !present {
							model[key] = v
						}
					case 2:
						v := rng.Uint64()%1000 + 1
						reqs[i] = Request{Op: OpUpdate, Key: key, Value: v}
						want[i] = expect{ok: present}
						if present {
							model[key] = v
						}
					default:
						reqs[i] = Request{Op: OpDelete, Key: key}
						want[i] = expect{ok: present}
						delete(model, key)
					}
				}
				resps, err := c.Pipeline(reqs)
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", cl, round, err)
					return
				}
				for i, resp := range resps {
					wantStatus := StatusOK
					if !want[i].ok {
						wantStatus = StatusMiss
					}
					if resp.Status != wantStatus {
						errs <- fmt.Errorf("client %d round %d op %d (%+v): status %d, want %d",
							cl, round, i, reqs[i], resp.Status, wantStatus)
						return
					}
					if reqs[i].Op == OpGet && want[i].ok && resp.Value != want[i].value {
						errs <- fmt.Errorf("client %d round %d get %d: value %d, want %d",
							cl, round, reqs[i].Key, resp.Value, want[i].value)
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Drain the server, then audit the final state directly.
	s.Shutdown()
	total := 0
	for cl := 0; cl < clients; cl++ {
		total += len(models[cl])
		for key, want := range models[cl] {
			if v, ok := h.Get(key); !ok || v != want {
				t.Fatalf("final state key %d = (%d,%v), want %d", key, v, ok, want)
			}
		}
	}
	if got := h.Len(); got != total {
		t.Fatalf("final Len = %d, want %d", got, total)
	}
}

// TestServerGracefulShutdownDrain pins the drain guarantee: every
// request the server has read before Shutdown gets a response. The
// client pipelines a burst, the test waits (via the mutex-guarded
// server-side stats) until all of it has been read, shuts down while
// the responses are still streaming, and requires exactly one response
// per request followed by a clean connection close.
func TestServerGracefulShutdownDrain(t *testing.T) {
	s, h, addr := newTestServer(t, Config{Window: 8},
		core.Config{Partitions: 4, KeyMax: 1 << 16})
	// The Client type is single-goroutine by contract, and this test must
	// send and receive concurrently — so it speaks the wire format
	// directly over a raw connection.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	const n = 2000
	var reqBuf []byte
	for i := 0; i < n; i++ {
		reqBuf = AppendRequest(reqBuf, Request{Op: OpPut, Key: uint64(i) + 1, Value: uint64(i)})
	}

	got := make(chan int, 1)
	go func() {
		count := 0
		for count < n {
			if _, err := readResponse(br, OpPut); err != nil {
				break
			}
			count++
		}
		got <- count
	}()
	if _, err := nc.Write(reqBuf); err != nil {
		t.Fatalf("send: %v", err)
	}

	// Wait until the server has read the whole burst (responses may still
	// be in flight), then drain. Only this connection exists, so
	// server/requests counts exactly our requests.
	deadline := time.Now().Add(10 * time.Second)
	for statValue(t, s.StatsText(), "server/requests") < n {
		if time.Now().After(deadline) {
			t.Fatalf("server read %d/%d requests", statValue(t, s.StatsText(), "server/requests"), n)
		}
		time.Sleep(time.Millisecond)
	}
	s.Shutdown()

	if count := <-got; count != n {
		t.Fatalf("received %d responses, want %d (drain lost %d)", count, n, n-count)
	}
	// The drain reached the map: all n inserts applied.
	if gotLen := h.Len(); gotLen != n {
		t.Fatalf("Len = %d after drain, want %d", gotLen, n)
	}
	// And the connection is now cleanly closed: further reads fail.
	if _, err := readResponse(br, OpPut); err == nil {
		t.Fatal("read after drain succeeded")
	}
}

// TestServerRejectedAfterMapClose covers the Rejected status: if the
// hybrid map is closed out from under a running server (the documented
// order is Shutdown first, but the server must stay crash-free either
// way), data operations come back StatusRejected, and the convenience
// client folds that into an error.
func TestServerRejectedAfterMapClose(t *testing.T) {
	_, h, addr := newTestServer(t, Config{Window: 4}, core.Config{Partitions: 2, KeyMax: 1 << 12})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if ok, err := c.Put(5, 50); err != nil || !ok {
		t.Fatalf("Put = %v, %v", ok, err)
	}
	h.Close()
	if err := c.Send(Request{Op: OpGet, Key: 5}); err != nil {
		t.Fatalf("send: %v", err)
	}
	resp, err := c.Recv()
	if err != nil || resp.Status != StatusRejected {
		t.Fatalf("post-Close Get -> %+v, %v, want StatusRejected", resp, err)
	}
	if _, _, err := c.Get(5); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("client Get error = %v, want rejection", err)
	}
	// Scans read the quiescent stores and still work, alone and in a
	// window with data operations, from key 0 or inside the key space.
	if pairs, err := c.Scan(0, 10); err != nil || len(pairs) != 1 {
		t.Fatalf("post-Close Scan = %+v, %v", pairs, err)
	}
	resps, err := c.Pipeline([]Request{{Op: OpGet, Key: 5}, {Op: OpScan, Key: 3, Value: 10}, {Op: OpPut, Key: 6, Value: 60}})
	if err != nil || resps[0].Status != StatusRejected || resps[2].Status != StatusRejected {
		t.Fatalf("post-Close GET, SCAN, PUT window -> %+v, %v; want the GET and PUT rejected", resps, err)
	}
	if r := resps[1]; r.Status != StatusOK || len(r.Pairs) != 1 || r.Pairs[0] != (Pair{Key: 5, Value: 50}) {
		t.Fatalf("post-Close windowed SCAN from 3 -> %+v, want OK with (5, 50)", r)
	}
}

// TestServerSlowClientDeadline checks the slow-client eviction: a client
// that requests a flood of large SCAN responses and never reads its
// socket must be disconnected by the write deadline, counted in
// server/write_timeouts, without wedging the server (a healthy client
// keeps working throughout).
func TestServerSlowClientDeadline(t *testing.T) {
	s, h, addr := newTestServer(t,
		Config{Window: 4, WriteTimeout: 200 * time.Millisecond, ScanLimit: 1024},
		core.Config{Partitions: 4, KeyMax: 1 << 20})
	pairs := make([]core.KV, 1<<14)
	for i := range pairs {
		pairs[i] = core.KV{Key: uint64(i) + 1, Value: uint64(i)}
	}
	h.Build(pairs)

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer slow.Close()
	// Each SCAN response is ~16 KiB; thousands of them overflow both
	// sockets' buffers long before the client reads a byte.
	go func() {
		var buf []byte
		for i := 0; i < 8192; i++ {
			buf = AppendRequest(buf[:0], Request{Op: OpScan, Key: 1, Value: 1024})
			if _, err := slow.Write(buf); err != nil {
				return // server hung up: expected
			}
		}
	}()

	deadline := time.Now().Add(15 * time.Second)
	for statValue(t, s.StatsText(), "server/write_timeouts") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("write deadline never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server is still healthy for well-behaved clients.
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if v, ok, err := c.Get(7); err != nil || !ok || v != 6 {
		t.Fatalf("healthy Get = %d, %v, %v", v, ok, err)
	}
}

// TestServerMaxConns checks the accept cap: the connection beyond the
// cap is closed immediately and counted, while the admitted one keeps
// working; a slot freed by a disconnect is reusable.
func TestServerMaxConns(t *testing.T) {
	s, _, addr := newTestServer(t, Config{Window: 4, MaxConns: 1},
		core.Config{Partitions: 2, KeyMax: 1 << 12})
	c1, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	defer c1.Close()
	if ok, err := c1.Put(1, 1); err != nil || !ok {
		t.Fatalf("c1 Put = %v, %v", ok, err)
	}

	c2, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial 2: %v", err) // kernel accepts; the server refuses after
	}
	c2.Send(Request{Op: OpGet, Key: 1})
	if _, err := c2.Recv(); err == nil {
		t.Fatal("over-cap connection was served")
	}
	c2.Close()

	deadline := time.Now().Add(10 * time.Second)
	for statValue(t, s.StatsText(), "server/conns_refused") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("refusal never counted")
		}
		time.Sleep(time.Millisecond)
	}

	// c1 is unaffected.
	if v, ok, err := c1.Get(1); err != nil || !ok || v != 1 {
		t.Fatalf("c1 Get after refusal = %d, %v, %v", v, ok, err)
	}

	// Freeing the slot readmits new clients.
	c1.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		c3, err := Dial(addr)
		if err == nil {
			if ok, err := c3.Put(2, 2); err == nil && ok {
				c3.Close()
				break
			}
			c3.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("freed slot never readmitted a client")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNewDefaultsOnlyOutOfRangeFields checks that New replaces an
// out-of-range tunable by its default and keeps the others as given.
func TestNewDefaultsOnlyOutOfRangeFields(t *testing.T) {
	h := core.New(core.Config{Partitions: 1, KeyMax: 1 << 10})
	defer h.Close()
	for _, tc := range []struct {
		cfg  Config
		want Tunables
	}{
		{Config{Window: 1 << 20, MaxConns: 4, WriteTimeout: -1},
			Tunables{Window: DefaultWindow, MaxConns: 4, WriteTimeout: -1}},
		{Config{Window: 8, MaxConns: -1, SlowOp: time.Millisecond},
			Tunables{Window: 8, WriteTimeout: 10 * time.Second, SlowOp: time.Millisecond}},
		{Config{Window: 8, MaxConns: 2, WriteTimeout: time.Second, SlowOp: -1},
			Tunables{Window: 8, MaxConns: 2, WriteTimeout: time.Second}},
	} {
		if got := New(h, tc.cfg).Tunables(); got != tc.want {
			t.Errorf("New(%+v) runs with %+v, want %+v", tc.cfg, got, tc.want)
		}
	}
}
