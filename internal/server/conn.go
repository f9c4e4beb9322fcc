package server

import (
	"bufio"
	"net"
	"sync"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/hds"
	"hybrids/internal/metrics"
)

// serveTallies accumulates one serve call's counter deltas in plain
// locals; they land in the connection's atomic cells in a single burst
// at the end of the batch, so a STATS request coalesced into the batch
// snapshots the state as of the batch's start.
type serveTallies struct {
	n [numStats]uint64
	// timed is set when slow-op sampling is armed for this serve call;
	// coreWait then accumulates the time spent blocked in the core
	// runtime (batcher windows and scan barriers).
	timed    bool
	coreWait time.Duration
}

// flushBytes is the staged-response cap: once a connection's output
// buffer holds this much the loop writes it out even though more requests
// are waiting, so staged memory per connection is bounded by flushBytes
// plus one maximal response frame.
const flushBytes = 64 << 10

// conn is one served connection, owned by one goroutine (run): it reads
// whatever the client has pipelined, coalesces and executes it, appends
// the encoded responses to out, and writes out in a single socket write
// before it would block on the socket for more requests. A loop blocked
// in that write is not reading, so a client that stops draining its
// responses is pushed back on through TCP flow control (and cut by the
// write deadline). A steady-state scalar operation touches no shared
// mutex and performs no heap allocation anywhere on this path.
type conn struct {
	srv *Server
	nc  net.Conn
	// tun is the live configuration captured at accept: the connection
	// serves its whole life under these values, so a concurrent
	// SetTunables never races the data path (new connections pick up the
	// new tunables).
	tun     *Tunables
	remote  string
	opened  time.Time
	batcher *core.Batcher
	stop    chan struct{}
	// drainOnce makes beginDrain idempotent (Shutdown may be called more
	// than once).
	drainOnce sync.Once

	// Loop scratch, reused across batches (hdr is the frame-decode
	// scratch: a stack array would escape through the io.Reader and
	// allocate per request).
	hdr      [reqFrame]byte
	reqs     []Request
	ops      []hds.Request
	outcomes []core.Outcome
	// out stages encoded response frames awaiting the next socket write;
	// staged counts them. dead is set by a failed write: the rest of the
	// batch in hand is still executed, its responses discarded, and the
	// loop exits.
	out    []byte
	staged uint64
	dead   bool

	stats connStats
}

// beginDrain tells the connection to stop reading new requests. The
// read deadline kick makes any blocked or future socket read fail
// immediately; the closed stop channel tells the loop that the failure
// is a drain, not a client error. Requests already read are still served
// and their responses flushed.
func (c *conn) beginDrain() {
	c.drainOnce.Do(func() {
		close(c.stop)
		c.nc.SetReadDeadline(time.Now())
	})
}

// run is the connection's loop and lifecycle owner: it reads and serves
// request batches until the client disconnects, a framing error poisons
// the stream, a write fails or a drain begins, then flushes what is
// staged, closes the socket and deregisters the connection.
func (c *conn) run() {
	c.loop()
	c.flush()
	c.nc.Close()
	c.srv.connClosed(c)
}

// loop serves batches until the connection has to end. It writes what
// is staged whenever its next read would block on the socket — the
// client has nothing more in flight and is waiting — and otherwise lets
// consecutive batches share one write, up to flushBytes.
func (c *conn) loop() {
	br := bufio.NewReaderSize(c.nc, 32<<10)
	window := c.tun.Window
	for !c.dead {
		// A drain may have been signalled while serving the previous
		// batch; the deadline kick only fails *reads*, so check before
		// blocking on the next one.
		select {
		case <-c.stop:
			return
		default:
		}
		if br.Buffered() < reqFrame {
			c.flush()
		}
		req, err := readRequestInto(br, &c.hdr)
		if err != nil {
			return
		}
		c.reqs = append(c.reqs[:0], req)
		// Coalesce whatever the client has already pipelined, up to the
		// window — without ever blocking on the socket for more. Reads
		// of buffered bytes cannot fail with an I/O error, so err here
		// can only be a framing error.
		for len(c.reqs) < window && br.Buffered() >= reqFrame {
			req, err = readRequestInto(br, &c.hdr)
			if err != nil {
				break
			}
			c.reqs = append(c.reqs, req)
		}
		c.serve(c.reqs)
		if err != nil {
			return // framing error, after serving the intact prefix
		}
	}
}

// flush writes the staged responses in one socket write under the
// slow-client deadline. A failed write marks the connection dead and
// counts a deadline expiry as a slow-client timeout.
func (c *conn) flush() {
	if len(c.out) == 0 {
		return
	}
	if !c.dead {
		if c.tun.WriteTimeout > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(c.tun.WriteTimeout))
		}
		if _, err := c.nc.Write(c.out); err == nil {
			c.stats.cells[statResponses].Add(c.staged)
		} else {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				c.stats.cells[statWriteTimeouts].Inc()
			}
			c.dead = true
		}
	}
	c.out, c.staged = c.out[:0], 0
}

// frameStaged accounts one response frame appended to out and enforces
// the staging cap.
func (c *conn) frameStaged() {
	c.staged++
	if len(c.out) >= flushBytes {
		c.flush()
	}
}

// serve executes one coalesced batch and stages its responses in request
// order. Runs of scalar operations go through a single window of the
// connection's core.Batcher; SCAN and STATS act as batch boundaries (a
// scan is a combiner barrier, a stats snapshot is server-local).
func (c *conn) serve(reqs []Request) {
	s := c.srv
	var t serveTallies

	// Slow-op sampling: one time.Now per batch when armed, zero timing
	// calls when the threshold is 0 (the default), so the zero-allocation
	// zero-overhead contract is untouched unless an operator opts in.
	slow := c.tun.SlowOp
	var start time.Time
	if slow > 0 {
		t.timed = true
		start = time.Now()
	}

	c.ops = c.ops[:0]
	for _, r := range reqs {
		kind, known := kindOf(r.Op)
		if known && r.Op != OpScan {
			if r.Key == 0 || r.Key >= s.h.KeyMax() {
				c.flushOps(&t)
				t.n[statBadRequests]++
				c.stageScalar(StatusBadRequest, 0)
				continue
			}
			c.ops = append(c.ops, hds.Request{Kind: kind, Key: r.Key, Value: r.Value})
			continue
		}
		c.flushOps(&t)
		switch r.Op {
		case OpScan:
			c.serveScan(r, &t)
		case OpStats:
			c.out = AppendStatsResponse(c.out, StatusOK, s.StatsText())
			c.frameStaged()
		default:
			t.n[statBadRequests]++
			c.stageScalar(StatusBadRequest, 0)
		}
	}
	c.flushOps(&t)

	t.n[statRequests] = uint64(len(reqs))
	for _, r := range reqs {
		if r.Op >= 1 && r.Op <= OpStats {
			t.n[opStat[r.Op]]++
		}
	}
	if t.timed {
		if total := time.Since(start); total >= slow {
			t.n[statSlowOps]++
			s.logSlowOp(c, len(reqs), &t, total)
		}
	}
	for i, v := range &t.n {
		if v != 0 {
			c.stats.cells[i].Add(v)
		}
	}
}

// flushOps runs the pending scalar operations through the batcher's
// window and stages their fixed-size response frames.
func (c *conn) flushOps(t *serveTallies) {
	n := len(c.ops)
	if n == 0 {
		return
	}
	if cap(c.outcomes) < n {
		c.outcomes = make([]core.Outcome, n)
	}
	out := c.outcomes[:n]
	if t.timed {
		applyStart := time.Now()
		c.batcher.Apply(c.ops, out)
		t.coreWait += time.Since(applyStart)
	} else {
		c.batcher.Apply(c.ops, out)
	}
	for _, o := range out {
		status := StatusOK
		switch {
		case o.Rejected:
			status = StatusRejected
			t.n[statRejected]++
		case !o.Result.OK:
			status = StatusMiss
		}
		c.stageScalar(status, o.Result.Value)
	}
	t.n[statBatchSum] += uint64(n)
	t.n[statBatchCount]++
	c.stats.batchBuckets[metrics.BucketIndex(uint64(n))].Inc()
	c.ops = c.ops[:0]
}

// stageScalar stages one scalar response frame.
func (c *conn) stageScalar(status uint8, value uint64) {
	c.out = AppendScalarResponse(c.out, status, value)
	c.frameStaged()
}

// serveScan answers one SCAN request: the result is collected in a
// pooled pair buffer and encoded onto the staged output.
func (c *conn) serveScan(r Request, t *serveTallies) {
	s := c.srv
	limit := uint64(s.cfg.ScanLimit)
	if r.Value < limit {
		limit = r.Value
	}
	var kvs []Pair
	if t.timed {
		scanStart := time.Now()
		kvs = s.h.ScanAppend(pairPool.get(int(limit)), r.Key, int(limit))
		t.coreWait += time.Since(scanStart)
	} else {
		kvs = s.h.ScanAppend(pairPool.get(int(limit)), r.Key, int(limit))
	}
	t.n[statScanPairs] += uint64(len(kvs))
	c.out = AppendScanResponse(c.out, StatusOK, kvs)
	c.frameStaged()
	pairPool.put(kvs)
}
