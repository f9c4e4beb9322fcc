package server

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hybrids/internal/core"
)

// pipeAddr is the dummy address of an in-memory pipe listener.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// oneConnListener adapts a pre-established net.Conn (typically one end
// of net.Pipe) to the net.Listener contract Serve expects: the first
// Accept returns the connection, later ones block until Close.
type oneConnListener struct {
	ch        chan net.Conn
	closed    chan struct{}
	closeOnce sync.Once
}

func newOneConnListener(c net.Conn) *oneConnListener {
	l := &oneConnListener{ch: make(chan net.Conn, 1), closed: make(chan struct{})}
	l.ch <- c
	return l
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *oneConnListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *oneConnListener) Addr() net.Addr { return pipeAddr{} }

// benchServer starts a server for benchmarking and returns a connected
// client. transport is "tcp" (real loopback socket) or "pipe"
// (net.Pipe; write deadlines are disabled there because pipe deadline
// timers allocate per call, which would pollute the measurement).
func benchServer(b *testing.B, transport string, window int) (*Server, *Client) {
	b.Helper()
	h := core.New(core.Config{Partitions: 4, KeyMax: 1 << 20})
	cfg := Config{Window: window}
	if transport == "pipe" {
		cfg.WriteTimeout = -1
	}
	s := New(h, cfg)
	var cl *Client
	switch transport {
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatalf("listen: %v", err)
		}
		go s.Serve(ln)
		cl, err = Dial(ln.Addr().String())
		if err != nil {
			b.Fatalf("dial: %v", err)
		}
	case "pipe":
		sc, cc := net.Pipe()
		go s.Serve(newOneConnListener(sc))
		cl = NewClient(cc)
	default:
		b.Fatalf("unknown transport %q", transport)
	}
	b.Cleanup(func() {
		cl.Close()
		s.Shutdown()
		h.Close()
	})
	return s, cl
}

// benchPreload inserts keys 1..n (value = key) through the client.
func benchPreload(b *testing.B, cl *Client, n int) {
	b.Helper()
	reqs := make([]Request, 0, 64)
	for lo := 1; lo <= n; lo += 64 {
		reqs = reqs[:0]
		for k := lo; k <= n && k < lo+64; k++ {
			reqs = append(reqs, Request{Op: OpPut, Key: uint64(k), Value: uint64(k)})
		}
		if _, err := cl.Pipeline(reqs); err != nil {
			b.Fatalf("preload: %v", err)
		}
	}
}

// BenchmarkServeLoopback measures the end-to-end serving path — client
// encode, socket, request coalescing, batcher window, response encode,
// socket write, client decode — over a real TCP loopback socket and an
// in-memory pipe, with a blocking client (depth 1) and a pipelined one
// (depth = window). b.N counts operations (GET over 4096 resident
// keys).
func BenchmarkServeLoopback(b *testing.B) {
	const records = 4096
	for _, transport := range []string{"tcp", "pipe"} {
		for _, depth := range []int{1, 16} {
			mode := "blocking"
			if depth > 1 {
				mode = fmt.Sprintf("pipelined%d", depth)
			}
			b.Run(fmt.Sprintf("%s/%s", transport, mode), func(b *testing.B) {
				_, cl := benchServer(b, transport, 16)
				benchPreload(b, cl, records)
				reqs := make([]Request, depth)
				for i := range reqs {
					reqs[i] = Request{Op: OpGet, Key: uint64(i*977%records) + 1}
				}
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for n := 0; n < b.N; n += depth {
					if err := cl.Send(reqs...); err != nil {
						b.Fatalf("send: %v", err)
					}
					for range reqs {
						if _, err := cl.Recv(); err != nil {
							b.Fatalf("recv: %v", err)
						}
					}
				}
				elapsed := time.Since(start)
				if elapsed > 0 {
					b.ReportMetric(float64(b.N)/elapsed.Seconds()/1e6, "Mops/s")
				}
			})
		}
	}
}
