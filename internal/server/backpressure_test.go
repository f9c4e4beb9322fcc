package server

import (
	"bufio"
	"net"
	"runtime"
	"testing"
	"time"

	"hybrids/internal/core"
)

// sockBuf is the socket buffer size the backpressure tests pin on both
// ends of a connection, so "more than the buffers hold" is tens of
// kilobytes rather than the megabytes loopback autotuning allows (not
// smaller than loopback's 64 KiB segment size: below it, reopening a
// closed window waits on the kernel's persist and delayed-ACK timers).
const sockBuf = 64 << 10

// shrinkBuffers pins a TCP connection's kernel buffers to sockBuf.
func shrinkBuffers(t *testing.T, nc net.Conn) {
	tc := nc.(*net.TCPConn)
	if err := tc.SetReadBuffer(sockBuf); err != nil {
		t.Errorf("SetReadBuffer: %v", err)
	}
	if err := tc.SetWriteBuffer(sockBuf); err != nil {
		t.Errorf("SetWriteBuffer: %v", err)
	}
}

// smallBufListener shrinks the buffers of every accepted connection.
type smallBufListener struct {
	net.Listener
	t *testing.T
}

func (l smallBufListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		shrinkBuffers(l.t, nc)
	}
	return nc, err
}

// newSmallBufServer is newTestServer over 4096 preloaded keys (k -> 3k)
// with small socket buffers on the server's side of every connection.
func newSmallBufServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s, h, addr := serveTestListener(t, smallBufListener{ln, t}, cfg,
		core.Config{Partitions: 4, KeyMax: 1 << 16})
	pairs := make([]core.KV, 4096)
	for i := range pairs {
		pairs[i] = core.KV{Key: uint64(i) + 1, Value: 3 * (uint64(i) + 1)}
	}
	h.Build(pairs)
	return s, addr
}

// dialSmallBuf dials addr and shrinks the client side's buffers too.
func dialSmallBuf(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	shrinkBuffers(t, nc)
	return nc
}

// TestServerBackpressure pins the overload behaviour of the one-loop
// connection: a client that pipelines far more than the socket buffers
// hold and reads nothing stops the server reading (server/requests
// plateaus below the number sent — the loop is blocked writing, the
// backlog waits in the kernel and the client's own Write), nothing is
// lost or reordered once the client does read, and the write deadline
// never fires on the way.
func TestServerBackpressure(t *testing.T) {
	cases := []struct {
		name string
		n    int
		req  func(i int) Request
		ok   func(i int, r Response) bool
	}{
		{"get", 100_000,
			func(i int) Request { return Request{Op: OpGet, Key: uint64(i%4096) + 1} },
			func(i int, r Response) bool { return r.Value == 3*(uint64(i%4096)+1) }},
		{"scan1024", 1500,
			func(i int) Request { return Request{Op: OpScan, Key: uint64(i%512) + 1, Value: 1024} },
			func(i int, r Response) bool {
				ok := len(r.Pairs) == 1024 && r.Pairs[0].Key == uint64(i%512)+1 && r.Pairs[1023].Key == uint64(i%512)+1024
				PutPairs(r.Pairs)
				return ok
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A small window, so server/requests (which lands once per
			// served batch) has moved before the first write blocks.
			s, addr := newSmallBufServer(t, Config{Window: 4})
			nc := dialSmallBuf(t, addr)
			defer nc.Close()

			var reqBuf []byte
			for i := 0; i < tc.n; i++ {
				reqBuf = AppendRequest(reqBuf, tc.req(i))
			}
			sent := make(chan error, 1)
			go func() {
				_, err := nc.Write(reqBuf)
				sent <- err
			}()

			// Plateau: the count of requests read stops moving (and is
			// not zero) for 200 ms while the client has read nothing.
			requests := func() uint64 { return statValue(t, s.StatsText(), "server/requests") }
			deadline := time.Now().Add(10 * time.Second)
			last, still := requests(), 0
			for still < 10 {
				if time.Now().After(deadline) {
					t.Fatalf("server/requests never settled (at %d)", last)
				}
				time.Sleep(20 * time.Millisecond)
				if now := requests(); now == last && now != 0 {
					still++
				} else {
					last, still = now, 0
				}
			}
			if last >= uint64(tc.n) {
				t.Fatalf("server read all %d requests from a client that reads nothing", tc.n)
			}
			t.Logf("server stopped reading at %d of %d requests", last, tc.n)

			br := bufio.NewReader(nc)
			var scratch []byte
			for i := 0; i < tc.n; i++ {
				resp, sc, err := ReadResponseBuf(br, tc.req(i).Op, scratch)
				scratch = sc
				if err != nil {
					t.Fatalf("response %d: %v", i, err)
				}
				if resp.Status != StatusOK || !tc.ok(i, resp) {
					t.Fatalf("response %d out of order or wrong: status %d value %d, %d pairs",
						i, resp.Status, resp.Value, len(resp.Pairs))
				}
			}
			if err := <-sent; err != nil {
				t.Fatalf("send: %v", err)
			}
			// Every response is in hand, so the server has read every
			// request; the count lands at the end of the last batch (which
			// may follow that batch's write when the staging cap forced
			// it). A further response would be a duplicate.
			for deadline := time.Now().Add(5 * time.Second); requests() != uint64(tc.n); {
				if time.Now().After(deadline) {
					t.Fatalf("server/requests = %d, want %d", requests(), tc.n)
				}
				time.Sleep(time.Millisecond)
			}
			if got := statValue(t, s.StatsText(), "server/write_timeouts"); got != 0 {
				t.Errorf("server/write_timeouts = %d, want 0", got)
			}
			nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			if b, err := br.ReadByte(); err == nil {
				t.Errorf("extra byte %#x after the last response", b)
			}
		})
	}
}

// TestClientPipelineLong pipelines more requests through Client.Pipeline
// than the socket buffers hold in either direction: sent all at once
// before any response is read, client and server would both block
// writing until the write deadline cut the connection.
func TestClientPipelineLong(t *testing.T) {
	_, addr := newSmallBufServer(t, Config{Window: 16, WriteTimeout: 2 * time.Second})
	cl := NewClient(dialSmallBuf(t, addr))
	defer cl.Close()
	const n = 100_000
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Op: OpGet, Key: uint64(i%4096) + 1}
	}
	resps, err := cl.Pipeline(reqs)
	if err != nil || len(resps) != n {
		t.Fatalf("Pipeline = %d responses, %v; want %d", len(resps), err, n)
	}
	for i, r := range resps {
		if r.Status != StatusOK || r.Value != 3*reqs[i].Key {
			t.Fatalf("response %d = %+v for key %d", i, r, reqs[i].Key)
		}
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has held one
// value for 50 ms (earlier tests' helper goroutines may still be on
// their way out).
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for still < 5 {
		time.Sleep(10 * time.Millisecond)
		if now := runtime.NumGoroutine(); now == n {
			still++
		} else {
			n, still = now, 0
		}
	}
	return n
}

// TestServerGoroutinePerConn pins the connection's cost in goroutines —
// exactly one — and that a drain leaks none.
func TestServerGoroutinePerConn(t *testing.T) {
	h := core.New(core.Config{Partitions: 2, KeyMax: 1 << 12})
	defer h.Close()
	before := settledGoroutines()
	s := New(h, Config{Window: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(ln)
	defer s.Shutdown()

	const conns = 8
	for i := 0; i < conns; i++ {
		cl, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer cl.Close()
		// A round trip proves the connection is accepted and serving.
		if _, err := cl.Put(uint64(i)+1, 1); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// before + the accept loop + one per connection.
	if got := settledGoroutines(); got != before+1+conns {
		t.Errorf("%d goroutines with %d connections open, want %d", got, conns, before+1+conns)
	}
	s.Shutdown()
	if got := settledGoroutines(); got != before {
		t.Errorf("%d goroutines after Shutdown, want %d", got, before)
	}
}
