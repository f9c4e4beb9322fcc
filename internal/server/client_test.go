package server

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"hybrids/internal/core"
)

// countingConn counts the Write calls that reach the connection: one per
// socket write the client makes. The client uses it from one goroutine.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// dialCounting dials addr with a write-counting connection under a
// deadline, so a Recv that waits for a response to a request still in
// the client's buffer fails instead of hanging.
func dialCounting(t *testing.T, addr string) (*Client, *countingConn) {
	t.Helper()
	nc := dialSmallBuf(t, addr)
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	cc := &countingConn{Conn: nc}
	cl := NewClient(cc)
	t.Cleanup(func() { cl.Close() })
	return cl, cc
}

// TestFlushBeforeBlockFrameCheck pins flushBeforeBlock's frame check: the
// writer is flushed unless the reader already holds the next frame whole,
// header and body, and always when the frame is longer than the reader's
// buffer.
func TestFlushBeforeBlockFrameCheck(t *testing.T) {
	frame := AppendScalarResponse(nil, StatusOK, 7) // 4 + 9 bytes
	long := AppendStatsResponse(nil, StatusOK, make([]byte, 40))
	cases := []struct {
		name     string
		buffered []byte
		bufSize  int
		flush    bool
	}{
		{"empty", nil, 64, true},
		{"partial header", frame[:3], 64, true},
		{"header only", frame[:lenBytes], 64, true},
		{"body short by one", frame[:len(frame)-1], 64, true},
		{"whole frame", frame, 64, false},
		{"whole frame and more", append(append([]byte(nil), frame...), frame[:5]...), 64, false},
		{"frame longer than the buffer", long, 16, true},
	}
	for _, tc := range cases {
		br := bufio.NewReaderSize(bytes.NewReader(tc.buffered), tc.bufSize)
		br.Peek(1) // buffer what the reader holds, as a completed read would
		var out bytes.Buffer
		bw := bufio.NewWriter(&out)
		bw.WriteString("request")
		if err := flushBeforeBlock(br, bw); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if flushed := out.Len() > 0; flushed != tc.flush {
			t.Errorf("%s: flushed = %v, want %v", tc.name, flushed, tc.flush)
		}
	}
}

// TestClientWritesOnlyBeforeBlocking pins the client's write policy:
// Send only buffers, and Recv writes the buffer out only when the
// response it needs has not already arrived. Four windows of 16 requests
// therefore cost one write, made by the first Recv; the other 63 Recvs
// find their responses buffered or, when they do wait, nothing left to
// write.
func TestClientWritesOnlyBeforeBlocking(t *testing.T) {
	_, addr := newSmallBufServer(t, Config{})
	cl, cc := dialCounting(t, addr)
	const windows, window = 4, 16
	reqs := make([]Request, window)
	for w := 0; w < windows; w++ {
		for i := range reqs {
			reqs[i] = Request{Op: OpGet, Key: uint64(w*window+i) + 1}
		}
		if err := cl.Send(reqs...); err != nil {
			t.Fatalf("send window %d: %v", w, err)
		}
	}
	if cc.writes != 0 {
		t.Fatalf("%d writes after %d Sends, want 0", cc.writes, windows)
	}
	for i := 0; i < windows*window; i++ {
		resp, err := cl.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := 3 * uint64(i+1); resp.Status != StatusOK || resp.Value != want {
			t.Fatalf("response %d = %+v, want value %d", i, resp, want)
		}
		if cc.writes != 1 {
			t.Fatalf("%d writes after %d Recvs, want 1", cc.writes, i+1)
		}
	}
}

// TestClientScanLargerThanReadBuffer decodes SCAN frames of about 64 KiB,
// twice the client's read buffer, pipelined with scalar requests and with
// a request buffered while a frame is still arriving: the frame check
// can never see such a frame whole, so it must flush and let the decoder
// read across buffer refills.
func TestClientScanLargerThanReadBuffer(t *testing.T) {
	const limit = 4096 // every preloaded key
	_, addr := newSmallBufServer(t, Config{ScanLimit: limit})
	cl, _ := dialCounting(t, addr)
	scan := Request{Op: OpScan, Key: 1, Value: limit}
	if err := cl.Send(scan, Request{Op: OpGet, Key: 7}, scan); err != nil {
		t.Fatalf("send: %v", err)
	}
	checkScan := func(resp Response) {
		t.Helper()
		if resp.Status != StatusOK || len(resp.Pairs) != limit {
			t.Fatalf("SCAN -> status %d, %d pairs, want OK/%d", resp.Status, len(resp.Pairs), limit)
		}
		for i, p := range resp.Pairs {
			if k := uint64(i) + 1; p.Key != k || p.Value != 3*k {
				t.Fatalf("scan pair %d = %+v", i, p)
			}
		}
		PutPairs(resp.Pairs)
	}
	resp, err := cl.Recv()
	if err != nil {
		t.Fatalf("recv scan: %v", err)
	}
	checkScan(resp)
	if resp, err = cl.Recv(); err != nil || resp.Value != 21 {
		t.Fatalf("GET 7 -> %+v, %v", resp, err)
	}
	if err := cl.Send(Request{Op: OpGet, Key: 9}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if resp, err = cl.Recv(); err != nil {
		t.Fatalf("recv scan: %v", err)
	}
	checkScan(resp)
	if resp, err = cl.Recv(); err != nil || resp.Value != 27 {
		t.Fatalf("GET 9 -> %+v, %v", resp, err)
	}
	pairs, err := cl.Scan(1, limit)
	if err != nil || len(pairs) != limit {
		t.Fatalf("Scan = %d pairs, %v", len(pairs), err)
	}
}

// TestClientSendThenClose: Close writes out what Send buffered, so a
// request sent and never received is still applied.
func TestClientSendThenClose(t *testing.T) {
	_, _, addr := newTestServer(t, Config{}, core.Config{Partitions: 2, KeyMax: 1 << 12})
	c1, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c1.Send(Request{Op: OpPut, Key: 42, Value: 420}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	c2, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, ok, err := c2.Get(42)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if ok {
			if v != 420 {
				t.Fatalf("Get(42) = %d, want 420", v)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the PUT sent before Close was never applied")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientSendBeyondWriteBuffer: requests sent past the 32 KiB write
// buffer with no Recv between, in one Send and across many, go out as
// the buffer fills and are all answered.
func TestClientSendBeyondWriteBuffer(t *testing.T) {
	_, addr := newSmallBufServer(t, Config{})
	cl, cc := dialCounting(t, addr)
	const n = 2048 // 2048 * 21 bytes = 42 KiB per round
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Op: OpGet, Key: uint64(i) + 1}
	}
	for round, sends := range []int{1, n / 16} {
		written := cc.writes
		per := n / sends
		for s := 0; s < sends; s++ {
			if err := cl.Send(reqs[s*per : (s+1)*per]...); err != nil {
				t.Fatalf("round %d send %d: %v", round, s, err)
			}
		}
		if cc.writes == written {
			t.Fatalf("round %d: %d bytes of requests sent without a write", round, n*reqFrame)
		}
		for i := 0; i < n; i++ {
			resp, err := cl.Recv()
			if err != nil {
				t.Fatalf("round %d recv %d: %v", round, i, err)
			}
			if want := 3 * uint64(i+1); resp.Status != StatusOK || resp.Value != want {
				t.Fatalf("round %d response %d = %+v, want value %d", round, i, resp, want)
			}
		}
	}
}
