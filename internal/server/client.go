package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
)

// Client is a protocol client for one connection. It supports both
// one-at-a-time calls (Get, Put, ...) and explicit pipelining
// (Send/Recv, Pipeline), tracking sent operations FIFO so responses —
// which the server returns strictly in request order — are decoded with
// the right payload shape. A Client is not safe for concurrent use;
// open one per goroutine.
type Client struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// sent[sentHead:] holds the op codes of requests written but not yet
	// answered, consumed FIFO by Recv. Send drops the answered prefix
	// before it appends, so the list never holds more than the requests
	// in flight and a steady rhythm reuses one backing array, whether or
	// not the pipeline ever drains.
	sent     []uint8
	sentHead int
	buf      []byte
	// body is the decoder's frame scratch, reused across responses.
	body []byte
}

// Dial connects to a server at the TCP address addr.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection (the test suite uses
// net.Pipe-like setups; production callers use Dial).
func NewClient(nc net.Conn) *Client {
	return &Client{
		nc: nc,
		br: bufio.NewReaderSize(nc, 32<<10),
		bw: bufio.NewWriterSize(nc, 32<<10),
	}
}

// Close writes out any buffered requests, ignoring a write error as the
// serve loop does, and closes the connection. Responses still in flight
// are lost.
func (c *Client) Close() error {
	c.bw.Flush()
	return c.nc.Close()
}

// Send encodes reqs into the connection's write buffer without waiting
// for responses (pipelining). The buffer goes out when it fills or when
// a Recv would otherwise wait for a response, so a window of Sends costs
// one write. Each sent request owes exactly one Recv.
func (c *Client) Send(reqs ...Request) error {
	c.buf = c.buf[:0]
	for _, r := range reqs {
		c.buf = AppendRequest(c.buf, r)
	}
	if _, err := c.bw.Write(c.buf); err != nil {
		return err
	}
	c.sent = c.sent[:copy(c.sent, c.sent[c.sentHead:])]
	c.sentHead = 0
	for _, r := range reqs {
		c.sent = append(c.sent, r.Op)
	}
	return nil
}

// Recv reads the response to the oldest unanswered request, first
// writing out the buffered requests unless that response has already
// arrived whole (flushBeforeBlock). A SCAN response's Pairs slice is
// pooled; the caller owns it and may release it with PutPairs.
func (c *Client) Recv() (Response, error) {
	if c.sentHead == len(c.sent) {
		return Response{}, fmt.Errorf("server: Recv with no request in flight")
	}
	if err := flushBeforeBlock(c.br, c.bw); err != nil {
		return Response{}, err
	}
	op := c.sent[c.sentHead]
	c.sentHead++
	resp, body, err := ReadResponseBuf(c.br, op, c.body)
	c.body = body
	return resp, err
}

// flushBeforeBlock writes out bw's buffered requests unless br already
// holds the next response frame whole: the serve loop's flush rule on the
// client side, so the client writes only when its next read would
// otherwise wait. It never blocks on br. A frame longer than br's buffer
// always flushes, which costs no syscall when bw is empty.
func flushBeforeBlock(br *bufio.Reader, bw *bufio.Writer) error {
	if n := br.Buffered(); n >= lenBytes {
		hdr, _ := br.Peek(lenBytes)
		if uint64(n-lenBytes) >= uint64(binary.BigEndian.Uint32(hdr)) {
			return nil
		}
	}
	return bw.Flush()
}

// Pending returns the number of requests awaiting a Recv.
func (c *Client) Pending() int { return len(c.sent) - c.sentHead }

// pipelineChunk is how many requests Pipeline keeps in flight: few enough
// that a chunk's requests and its responses always fit the socket
// buffers (and, over a synchronous in-memory pipe, the server's read
// buffer), so neither side can block writing while the other is too.
const pipelineChunk = 256

// Pipeline sends reqs and collects their responses in request order,
// pipelineChunk requests at a time, so a pipeline of any length
// completes. On error the returned slice holds the responses received
// before it.
func (c *Client) Pipeline(reqs []Request) ([]Response, error) {
	out := make([]Response, 0, len(reqs))
	for len(reqs) > 0 {
		chunk := reqs[:min(len(reqs), pipelineChunk)]
		reqs = reqs[len(chunk):]
		if err := c.Send(chunk...); err != nil {
			return out, err
		}
		for range chunk {
			resp, err := c.Recv()
			if err != nil {
				return out, err
			}
			out = append(out, resp)
		}
	}
	return out, nil
}

// call issues one request and waits for its response.
func (c *Client) call(r Request) (Response, error) {
	if err := c.Send(r); err != nil {
		return Response{}, err
	}
	return c.Recv()
}

// Get looks key up. ok is false on a miss; err covers transport and
// protocol failures (including StatusRejected and StatusBadRequest).
func (c *Client) Get(key uint64) (value uint64, ok bool, err error) {
	return c.scalar(Request{Op: OpGet, Key: key})
}

// Put inserts key -> value; ok is false if the key already exists.
func (c *Client) Put(key, value uint64) (bool, error) {
	_, ok, err := c.scalar(Request{Op: OpPut, Key: key, Value: value})
	return ok, err
}

// Update overwrites an existing key's value; ok is false if absent.
func (c *Client) Update(key, value uint64) (bool, error) {
	_, ok, err := c.scalar(Request{Op: OpUpdate, Key: key, Value: value})
	return ok, err
}

// Delete removes key; ok is false if absent.
func (c *Client) Delete(key uint64) (bool, error) {
	_, ok, err := c.scalar(Request{Op: OpDelete, Key: key})
	return ok, err
}

// scalar issues one scalar request, folding the two failure statuses
// that are not legitimate data outcomes into the error.
func (c *Client) scalar(r Request) (uint64, bool, error) {
	resp, err := c.call(r)
	if err != nil {
		return 0, false, err
	}
	switch resp.Status {
	case StatusOK:
		return resp.Value, true, nil
	case StatusMiss:
		return resp.Value, false, nil
	}
	return 0, false, statusError(resp.Status)
}

// Scan returns up to limit pairs with keys >= from in ascending key
// order (the server may clamp limit to its configured cap). The returned
// slice is pooled: the caller owns it and may release it with PutPairs
// when done.
func (c *Client) Scan(from uint64, limit uint64) ([]Pair, error) {
	resp, err := c.call(Request{Op: OpScan, Key: from, Value: limit})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, statusError(resp.Status)
	}
	return resp.Pairs, nil
}

// Stats returns the server's metrics snapshot text.
func (c *Client) Stats() ([]byte, error) {
	resp, err := c.call(Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, statusError(resp.Status)
	}
	return resp.Stats, nil
}

// statusError converts a non-data response status into an error.
func statusError(status uint8) error {
	switch status {
	case StatusRejected:
		return fmt.Errorf("server: request rejected (server draining)")
	case StatusBadRequest:
		return fmt.Errorf("server: bad request")
	}
	return fmt.Errorf("server: unknown response status %d", status)
}
