package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/metrics"
)

// The traced run interposes only at boundaries the public API already
// exposes: a core.Store decorator handed to core.Config.NewStore (every
// cds call inside the full path), a net.Listener/net.Conn wrapper handed
// to Serve (the server's socket reads and writes), and observers around
// the client's Send/Recv and the embedded callers' Apply. Spans go to
// preallocated per-goroutine rings and are written at exit as Chrome
// trace_event JSON; totals are kept beside the rings so they cover every
// call, not only the ones still in a ring.

// spanKind names a span; the value indexes spanNames.
type spanKind uint8

const (
	spanSend spanKind = iota
	spanRecv
	spanApply
	spanSockRead
	spanSockWrite
	spanGet
	spanPut
	spanUpdate
	spanDelete
	spanAscend
)

// spanNames gives each kind its trace name and the kind that causes it
// ("" where the cause lies inside core or server, which this change does
// not instrument).
var spanNames = [...]struct{ name, parent string }{
	spanSend:      {"loadgen.send", ""},
	spanRecv:      {"loadgen.recv", "socket.write"},
	spanApply:     {"loadgen.apply", ""},
	spanSockRead:  {"socket.read", "loadgen.send"},
	spanSockWrite: {"socket.write", "socket.read"},
	spanGet:       {"cds.get", ""},
	spanPut:       {"cds.put", ""},
	spanUpdate:    {"cds.update", ""},
	spanDelete:    {"cds.delete", ""},
	spanAscend:    {"cds.ascend", ""},
}

// span is one timed interval. window is the id the layers share: the
// index of the client's 16-request window on its connection (-1 where a
// layer cannot know it).
type span struct {
	kind       spanKind
	start, end int64 // ns since the tracer's epoch
	window     int32
}

// ringSpans is the per-track ring capacity: enough to see a few thousand
// windows around the end of the run without a multi-hundred-MB file.
const ringSpans = 1 << 12

// spanRing keeps a track's most recent spans. One goroutine writes it.
type spanRing struct {
	name  string
	spans []span
	n     int // total ever recorded
}

func newSpanRing(name string) *spanRing {
	return &spanRing{name: name, spans: make([]span, ringSpans)}
}

func (r *spanRing) add(s span) {
	r.spans[r.n%len(r.spans)] = s
	r.n++
}

// tracer owns every interposer of one traced run.
type tracer struct {
	epoch time.Time
	// on gates recording: interposers stay in place for the whole run but
	// take timestamps only during the traced segments.
	on atomic.Bool
	// windowsPerConn sizes each connection's per-window timestamp tables.
	windowsPerConn int

	mu     sync.Mutex
	stores []*tracedStore
	conns  []*tracedConn
}

func newTracer(windowsPerConn int) *tracer {
	return &tracer{epoch: time.Now(), windowsPerConn: windowsPerConn}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// --- cds: the store decorator ---------------------------------------------

// tracedStore wraps one partition's store. Only that partition's combiner
// goroutine calls it after Build, so its fields need no synchronisation;
// totals are read at quiescence.
type tracedStore struct {
	inner core.Store
	t     *tracer
	ring  *spanRing
	calls uint64
	busy  int64 // ns inside the inner store
}

// wrapStores decorates a store factory.
func (t *tracer) wrapStores(inner func(partition int) core.Store) func(int) core.Store {
	return func(p int) core.Store {
		ts := &tracedStore{inner: inner(p), t: t, ring: newSpanRing(fmt.Sprintf("cds/p%d", p))}
		t.mu.Lock()
		t.stores = append(t.stores, ts)
		t.mu.Unlock()
		return ts
	}
}

func (s *tracedStore) done(kind spanKind, t0 time.Time) {
	t1 := time.Now()
	s.calls++
	s.busy += int64(t1.Sub(t0))
	s.ring.add(span{kind: kind, start: s.t.since(t0), end: s.t.since(t1), window: -1})
}

func (s *tracedStore) Get(key uint64) (uint64, bool) {
	if !s.t.on.Load() {
		return s.inner.Get(key)
	}
	t0 := time.Now()
	v, ok := s.inner.Get(key)
	s.done(spanGet, t0)
	return v, ok
}

func (s *tracedStore) Put(key, value uint64) bool {
	if !s.t.on.Load() {
		return s.inner.Put(key, value)
	}
	t0 := time.Now()
	ok := s.inner.Put(key, value)
	s.done(spanPut, t0)
	return ok
}

func (s *tracedStore) Update(key, value uint64) bool {
	if !s.t.on.Load() {
		return s.inner.Update(key, value)
	}
	t0 := time.Now()
	ok := s.inner.Update(key, value)
	s.done(spanUpdate, t0)
	return ok
}

func (s *tracedStore) Delete(key uint64) bool {
	if !s.t.on.Load() {
		return s.inner.Delete(key)
	}
	t0 := time.Now()
	ok := s.inner.Delete(key)
	s.done(spanDelete, t0)
	return ok
}

func (s *tracedStore) Len() int { return s.inner.Len() }

func (s *tracedStore) Ascend(from uint64, fn func(key, value uint64) bool) {
	if !s.t.on.Load() {
		s.inner.Ascend(from, fn)
		return
	}
	t0 := time.Now()
	s.inner.Ascend(from, fn)
	s.done(spanAscend, t0)
}

// Instrument keeps the inner store's structural counters registered under
// core/p<i>/store, as they are without the decorator.
func (s *tracedStore) Instrument(reg *metrics.Registry, prefix string) {
	if ins, ok := s.inner.(core.Instrumented); ok {
		ins.Instrument(reg, prefix)
	}
}

// --- socket: the listener and connection wrapper ---------------------------

// Wire geometry the wrapper needs to turn byte counts into request and
// response counts (docs/SERVING.md): every frame is a 4-byte big-endian
// length and that many payload bytes, and a request payload is 17 bytes.
const (
	frameLenBytes = 4
	requestFrame  = frameLenBytes + 17
)

type tracedListener struct {
	net.Listener
	t *tracer
}

func (t *tracer) wrapListener(ln net.Listener) net.Listener {
	return &tracedListener{Listener: ln, t: t}
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	id := len(l.t.conns)
	tc := &tracedConn{
		Conn:       nc,
		t:          l.t,
		readRing:   newSpanRing(fmt.Sprintf("socket/conn%d/read", id)),
		writeRing:  newSpanRing(fmt.Sprintf("socket/conn%d/write", id)),
		firstRead:  make([]int64, l.t.windowsPerConn),
		lastWrite:  make([]int64, l.t.windowsPerConn),
		tracedFrom: -1,
	}
	l.t.conns = append(l.t.conns, tc)
	return tc, nil
}

// tracedConn is the server's side of one connection. The server's reader
// goroutine is the only caller of Read and its writer goroutine the only
// caller of Write, so the two field groups need no synchronisation.
type tracedConn struct {
	net.Conn
	t *tracer

	// Read side. bytesIn counts every byte from connection start so that
	// byte offsets map to request and window indices; the other fields
	// count traced time only.
	readRing  *spanRing
	bytesIn   int64
	reads     uint64
	readWait  int64
	tracedIn  int64
	firstRead []int64 // per window: end of the Read that delivered its first byte
	// tracedFrom is the first window seen while tracing was on.
	tracedFrom int

	// Write side.
	writeRing  *spanRing
	responses  int64 // complete response frames written since connection start
	writes     uint64
	writeBusy  int64
	tracedOut  int64
	tracedResp int64
	lastWrite  []int64 // per window: end of the Write that carried its last response
	hdr        [frameLenBytes]byte
	hdrN       int
	need       int // payload bytes still owed by the current frame
}

func (c *tracedConn) Read(p []byte) (int, error) {
	on := c.t.on.Load()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		const windowBytes = requestFrame * windowOps
		lo, hi := c.bytesIn, c.bytesIn+int64(n)
		c.bytesIn = hi
		if on {
			t1 := time.Now()
			end := c.t.since(t1)
			first := int((lo + windowBytes - 1) / windowBytes) // first window starting in [lo, hi)
			for w := first; int64(w)*windowBytes < hi && w < len(c.firstRead); w++ {
				c.firstRead[w] = end
				if c.tracedFrom < 0 {
					c.tracedFrom = w
				}
			}
			c.reads++
			c.readWait += int64(t1.Sub(t0))
			c.tracedIn += int64(n)
			c.readRing.add(span{kind: spanSockRead, start: c.t.since(t0), end: end, window: int32(lo / windowBytes)})
		}
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	on := c.t.on.Load()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	n, err := c.Conn.Write(p)
	before := c.responses
	c.countFrames(p[:n])
	if on && n > 0 {
		t1 := time.Now()
		end := c.t.since(t1)
		// Window w's last response is number w*windowOps+windowOps-1.
		for w := int(before / windowOps); int64(w+1)*windowOps <= c.responses && w < len(c.lastWrite); w++ {
			c.lastWrite[w] = end
		}
		c.writes++
		c.writeBusy += int64(t1.Sub(t0))
		c.tracedOut += int64(n)
		c.tracedResp += c.responses - before
		c.writeRing.add(span{kind: spanSockWrite, start: c.t.since(t0), end: end, window: int32(before / windowOps)})
	}
	return n, err
}

// countFrames advances the response-frame parser over written bytes.
func (c *tracedConn) countFrames(p []byte) {
	for len(p) > 0 {
		if c.need == 0 {
			k := copy(c.hdr[c.hdrN:], p)
			c.hdrN += k
			p = p[k:]
			if c.hdrN < frameLenBytes {
				return
			}
			c.hdrN = 0
			c.need = int(binary.BigEndian.Uint32(c.hdr[:]))
			continue
		}
		k := min(c.need, len(p))
		c.need -= k
		p = p[k:]
		if c.need == 0 {
			c.responses++
		}
	}
}

// windowMeanNs returns the mean server-side first-read→last-write interval
// over the windows wholly served while tracing was on, and their count.
func (c *tracedConn) windowMeanNs() (mean float64, n int) {
	if c.tracedFrom < 0 {
		return 0, 0
	}
	var sum int64
	for w := c.tracedFrom; w < len(c.firstRead); w++ {
		if c.firstRead[w] == 0 || c.lastWrite[w] == 0 {
			continue
		}
		sum += c.lastWrite[w] - c.firstRead[w]
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n), n
}

// --- loadgen: the callers' observers ---------------------------------------

// callerTrace records one caller's side: send and receive-wait time per
// window for a served client, call time per batch or op for an embedded
// caller, and the round trip of each.
type callerTrace struct {
	t    *tracer
	ring *spanRing
	// sendStart remembers when each in-flight window's Send began; window
	// w+windowsInFlight is sent only after w was received.
	sendStart [windowsInFlight]time.Time
	sendNs    int64
	recvNs    int64
	// rtts are per-window (served), per-batch or per-op (embedded) round
	// trips in µs, preallocated for the traced segments.
	rtts []float64
}

func (t *tracer) newCaller(id, samples int) *callerTrace {
	return &callerTrace{t: t, ring: newSpanRing(fmt.Sprintf("loadgen/caller%d", id)), rtts: make([]float64, 0, samples)}
}

// sent records that window w (0-based within the run call) was written
// and flushed between t0 and t1.
func (c *callerTrace) sent(w int, t0, t1 time.Time) {
	c.sendStart[w%windowsInFlight] = t0
	c.sendNs += int64(t1.Sub(t0))
	c.ring.add(span{kind: spanSend, start: c.t.since(t0), end: c.t.since(t1), window: int32(w)})
}

// received records that the client waited from t0 to t1 for window w's
// responses.
func (c *callerTrace) received(w int, t0, t1 time.Time) {
	c.recvNs += int64(t1.Sub(t0))
	c.rtts = append(c.rtts, float64(t1.Sub(c.sendStart[w%windowsInFlight]))/1e3)
	c.ring.add(span{kind: spanRecv, start: c.t.since(t0), end: c.t.since(t1), window: int32(w)})
}

// call records an embedded caller's i-th Apply or Batcher.Apply.
func (c *callerTrace) call(i int, t0, t1 time.Time) {
	c.rtts = append(c.rtts, float64(t1.Sub(t0))/1e3)
	c.ring.add(span{kind: spanApply, start: c.t.since(t0), end: c.t.since(t1), window: int32(i)})
}

// --- output ---------------------------------------------------------------

// writeChrome writes every ring as Chrome trace_event JSON (load it in
// Perfetto or chrome://tracing): one track per ring, complete ("X")
// events with the shared window id and the causing span kind in args.
func writeChrome(path string, rings []*spanRing) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
	}
	for tid, r := range rings {
		sep()
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, r.name)
		kept := min(r.n, len(r.spans))
		for i := r.n - kept; i < r.n; i++ {
			s := r.spans[i%len(r.spans)]
			sep()
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"window":%d,"parent":%q}}`,
				spanNames[s.kind].name, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.window, spanNames[s.kind].parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
