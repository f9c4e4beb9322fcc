package main

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memPipe is an in-memory, buffered, full-duplex connection pair for the
// server.pipe rung: the serve loop with no kernel socket under it. It is
// buffered like a socket — a write completes without a matching read —
// because net.Pipe's rendezvous writes can deadlock a client that keeps
// several windows in flight: the client blocks sending window n+1 while
// the server's writer blocks handing over window n's responses.
func memPipe() (client, server net.Conn) {
	a, b := newMemHalf(), newMemHalf()
	return &memConn{rd: a, wr: b}, &memConn{rd: b, wr: a}
}

// memBufBytes bounds each direction, far above what four windows of the
// largest scan responses need.
const memBufBytes = 1 << 20

// memHalf is one direction's byte queue.
type memHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
	// kicked makes blocked and future reads fail with a timeout, which is
	// how server.Shutdown interrupts a connection's reader
	// (SetReadDeadline(now)).
	kicked bool
}

func newMemHalf() *memHalf {
	h := &memHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

type memConn struct {
	rd, wr *memHalf
}

func (c *memConn) Read(p []byte) (int, error) {
	h := c.rd
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.buf) == 0 {
		switch {
		case h.kicked:
			return 0, os.ErrDeadlineExceeded
		case h.closed:
			return 0, io.EOF
		}
		h.cond.Wait()
	}
	n := copy(p, h.buf)
	h.buf = h.buf[:copy(h.buf, h.buf[n:])]
	h.cond.Broadcast()
	return n, nil
}

func (c *memConn) Write(p []byte) (int, error) {
	h := c.wr
	h.mu.Lock()
	defer h.mu.Unlock()
	written := 0
	for len(p) > 0 {
		if h.closed {
			return written, io.ErrClosedPipe
		}
		room := memBufBytes - len(h.buf)
		if room == 0 {
			h.cond.Wait()
			continue
		}
		k := min(room, len(p))
		h.buf = append(h.buf, p[:k]...)
		p = p[k:]
		written += k
		h.cond.Broadcast()
	}
	return written, nil
}

// Close ends both directions: the peer reads EOF after draining and its
// writes fail.
func (c *memConn) Close() error {
	for _, h := range []*memHalf{c.rd, c.wr} {
		h.mu.Lock()
		h.closed = true
		h.cond.Broadcast()
		h.mu.Unlock()
	}
	return nil
}

// SetReadDeadline supports the one use the server makes of it on this
// path: a deadline that has already passed interrupts reads for good.
// Future deadlines are not armed (the rung runs with write deadlines
// off).
func (c *memConn) SetReadDeadline(t time.Time) error {
	if !t.IsZero() && !t.After(time.Now()) {
		c.rd.mu.Lock()
		c.rd.kicked = true
		c.rd.cond.Broadcast()
		c.rd.mu.Unlock()
	}
	return nil
}

func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

func (c *memConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

func (c *memConn) LocalAddr() net.Addr  { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr { return memAddr{} }

// oneConnListener hands Serve a single pre-established connection: the
// first Accept returns it, later ones block until Close.
type oneConnListener struct {
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
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
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *oneConnListener) Addr() net.Addr { return memAddr{} }
