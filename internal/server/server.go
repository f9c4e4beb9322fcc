package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/metrics"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a default.
type Config struct {
	// Store names the engine behind the served map (a registry name like
	// "btree"); STATS reports it as server/store so clients can tell what
	// structure they are measuring. Empty omits the line.
	Store string
	// Window is the maximum number of pipelined scalar requests one
	// connection coalesces into a single core.Batcher.Apply call (the
	// §3.5 non-blocking window). Defaults to 16.
	Window int
	// MaxConns caps concurrently served connections; connections accepted
	// beyond the cap are closed immediately and counted in
	// server/conns_refused. 0 means unlimited.
	MaxConns int
	// WriteTimeout is the deadline armed once per socket write. A
	// client that does not drain its responses within it is disconnected
	// and counted in server/write_timeouts. 0 defaults to 10s; a negative
	// value disables write deadlines entirely (useful over in-memory
	// pipes, whose deadline timers allocate).
	WriteTimeout time.Duration
	// ScanLimit caps the pairs returned by one SCAN request (the client's
	// requested count is clamped to it), bounding response frames and the
	// time a scan barrier occupies combiners. Defaults to 1024.
	ScanLimit int
	// Metrics receives the server's instruments (server/...); nil creates
	// a private registry. Connections accumulate per-op counts in their
	// own atomic cells and fold them into these instruments under the
	// server's mutex when they close; a STATS
	// snapshot sums the folded base with the live connections' cells, so
	// the data path itself never takes the mutex.
	Metrics *metrics.Registry
	// SlowOp is the initial slow-operation logging threshold: a served
	// batch whose wall-clock time reaches it emits one structured JSON
	// line to SlowOpLog (schema: docs/ADMIN.md). 0 disables sampling —
	// and with it every timing call on the serve path. Reconfigurable
	// live through SetTunables.
	SlowOp time.Duration
	// SlowOpLog receives slow-op JSON lines (one Write per line); nil
	// discards them. The writer is called outside the server mutex under
	// a dedicated log mutex, so a slow log sink stalls only other slow-op
	// emissions, never the data path or STATS.
	SlowOpLog io.Writer
}

// Server serves the binary protocol over TCP on behalf of one
// core.Hybrid. Construct with New, start with Serve or ListenAndServe,
// stop with Shutdown. The server never closes the hybrid map: callers
// Shutdown the server first, then Close the map, so every request read
// before the drain began reaches a combiner.
type Server struct {
	h   *core.Hybrid
	cfg Config

	// tun is the live-reconfigurable configuration (see Tunables): one
	// atomic pointer, swapped whole by SetTunables, captured whole by
	// each connection at accept.
	tun atomic.Pointer[Tunables]

	// logMu serializes slow-op log line writes (never held together with
	// mu).
	logMu sync.Mutex

	// mu guards the connection set, the lifecycle state and the folded
	// base values of the server/ instruments (the registry itself is
	// unsynchronized). The per-operation data path never takes it:
	// connections accumulate into their own connStats cells and fold
	// under mu only when they close.
	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	wg       sync.WaitGroup // one per live connection

	cAccepted   *metrics.Counter
	cRefused    *metrics.Counter
	cClosed     *metrics.Counter
	cRequests   *metrics.Counter
	cResponse   *metrics.Counter
	cRejected   *metrics.Counter
	cBadReq     *metrics.Counter
	cTimeouts   *metrics.Counter
	cScanned    *metrics.Counter
	cSlowOps    *metrics.Counter
	cEpoch      *metrics.Counter
	hBatch      *metrics.Histogram
	cBatchSum   *metrics.Counter
	cBatchCount *metrics.Counter
	cOps        [OpStats + 1]*metrics.Counter
}

// New returns a server over h. The hybrid map must outlive the server
// (Shutdown before h.Close for a loss-free drain). Reconfigurable fields
// outside their bounds are clamped to the defaults rather than rejected,
// matching the zero-value-usable Config contract.
func New(h *core.Hybrid, cfg Config) *Server {
	tun, err := Tunables{
		Window:       cfg.Window,
		MaxConns:     cfg.MaxConns,
		WriteTimeout: cfg.WriteTimeout,
		SlowOp:       cfg.SlowOp,
	}.normalize()
	if err != nil {
		tun, _ = Tunables{}.normalize()
	}
	cfg.Window, cfg.MaxConns, cfg.WriteTimeout, cfg.SlowOp = tun.Window, tun.MaxConns, tun.WriteTimeout, tun.SlowOp
	if cfg.ScanLimit <= 0 {
		cfg.ScanLimit = 1024
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		h:         h,
		cfg:       cfg,
		conns:     make(map[*conn]struct{}),
		cAccepted: reg.Counter("server/conns_accepted"),
		cRefused:  reg.Counter("server/conns_refused"),
		cClosed:   reg.Counter("server/conns_closed"),
		cRequests: reg.Counter("server/requests"),
		cResponse: reg.Counter("server/responses"),
		cRejected: reg.Counter("server/rejected"),
		cBadReq:   reg.Counter("server/bad_requests"),
		cTimeouts: reg.Counter("server/write_timeouts"),
		cScanned:  reg.Counter("server/scan_pairs"),
		cSlowOps:  reg.Counter("server/slow_ops"),
		cEpoch:    reg.Counter("server/config_epoch"),
		hBatch:    reg.Histogram("server/batch"),
	}
	s.tun.Store(&tun)
	// Histogram registers its backing counters in the registry; fetching
	// them by name here (registration is idempotent) lets STATS read
	// sum/count without reaching back into the registry per request.
	s.cBatchSum = reg.Counter("server/batch/sum")
	s.cBatchCount = reg.Counter("server/batch/count")
	for op, name := range opNames {
		s.cOps[op] = reg.Counter("server/ops/" + name)
	}
	return s
}

// ListenAndServe listens on the TCP address addr and serves until
// Shutdown. It returns after the listener is closed and reports any
// accept error other than the shutdown itself.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it. Connections
// beyond MaxConns are refused (closed on accept). Serve returns nil on
// shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		tun := s.tun.Load()
		s.mu.Lock()
		if s.draining || (tun.MaxConns > 0 && len(s.conns) >= tun.MaxConns) {
			s.cRefused.Inc()
			s.mu.Unlock()
			nc.Close()
			continue
		}
		c := &conn{
			srv:     s,
			nc:      nc,
			tun:     tun,
			remote:  nc.RemoteAddr().String(),
			opened:  time.Now(),
			batcher: s.h.NewBatcher(tun.Window),
			stop:    make(chan struct{}),
		}
		s.conns[c] = struct{}{}
		s.cAccepted.Inc()
		s.wg.Add(1)
		s.mu.Unlock()
		go c.run()
	}
}

// Addr returns the listener's address (nil before Serve), letting tests
// bind port 0 and dial back.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server gracefully: it stops accepting, tells every
// connection to stop reading new requests, and waits until each has
// answered everything it had already read — no response in flight is
// lost. It does not touch the hybrid map; close that after Shutdown
// returns. Shutdown is idempotent and safe to call before Serve.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	live := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		live = append(live, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range live {
		c.beginDrain()
	}
	s.wg.Wait()
}

// connClosed deregisters a finished connection: its locally accumulated
// metrics fold into the registry base under the server mutex (the only
// place the mutex and per-op counts ever meet). Called by the
// connection's own goroutine on its way out, so every cell is final.
func (s *Server) connClosed(c *conn) {
	st := &c.stats
	s.mu.Lock()
	delete(s.conns, c)
	s.cClosed.Inc()
	s.cRequests.Add(st.requests.Load())
	s.cResponse.Add(st.responses.Load())
	s.cRejected.Add(st.rejected.Load())
	s.cBadReq.Add(st.badReq.Load())
	s.cTimeouts.Add(st.timeouts.Load())
	s.cScanned.Add(st.scanned.Load())
	s.cSlowOps.Add(st.slowOps.Load())
	var buckets [metrics.NumBuckets]uint64
	for i := range st.batchBuckets {
		buckets[i] = st.batchBuckets[i].Load()
	}
	s.hBatch.Fold(st.batchSum.Load(), st.batchCount.Load(), &buckets)
	for op := 1; op <= int(OpStats); op++ {
		s.cOps[op].Add(st.ops[op].Load())
	}
	s.mu.Unlock()
	s.wg.Done()
}

// StatsText renders the server's instruments as sorted "name value"
// lines — the STATS response payload. Safe to call while serving.
func (s *Server) StatsText() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statRow pairs a registry counter with the accessor for its live
// per-connection cell (nil for counters maintained centrally).
type statRow struct {
	c    *metrics.Counter
	live func(*connStats) *metrics.Local
}

// statRows returns the server's counter rows in sorted-name order. The
// table is rebuilt per snapshot (snapshots are rare); the data path
// never touches it.
func (s *Server) statRows() []statRow {
	return []statRow{
		{s.cBadReq, func(st *connStats) *metrics.Local { return &st.badReq }},
		{s.cBatchCount, func(st *connStats) *metrics.Local { return &st.batchCount }},
		{s.cBatchSum, func(st *connStats) *metrics.Local { return &st.batchSum }},
		{s.cEpoch, nil},
		{s.cAccepted, nil},
		{s.cClosed, nil},
		{s.cRefused, nil},
		{s.cOps[OpDelete], func(st *connStats) *metrics.Local { return &st.ops[OpDelete] }},
		{s.cOps[OpGet], func(st *connStats) *metrics.Local { return &st.ops[OpGet] }},
		{s.cOps[OpPut], func(st *connStats) *metrics.Local { return &st.ops[OpPut] }},
		{s.cOps[OpScan], func(st *connStats) *metrics.Local { return &st.ops[OpScan] }},
		{s.cOps[OpStats], func(st *connStats) *metrics.Local { return &st.ops[OpStats] }},
		{s.cOps[OpUpdate], func(st *connStats) *metrics.Local { return &st.ops[OpUpdate] }},
		{s.cRejected, func(st *connStats) *metrics.Local { return &st.rejected }},
		{s.cRequests, func(st *connStats) *metrics.Local { return &st.requests }},
		{s.cResponse, func(st *connStats) *metrics.Local { return &st.responses }},
		{s.cScanned, func(st *connStats) *metrics.Local { return &st.scanned }},
		{s.cSlowOps, func(st *connStats) *metrics.Local { return &st.slowOps }},
		{s.cTimeouts, func(st *connStats) *metrics.Local { return &st.timeouts }},
	}
}

// liveValueLocked sums one row's registry base with every open
// connection's local cell; callers hold s.mu.
func (s *Server) liveValueLocked(r statRow) uint64 {
	v := r.c.Value()
	if r.live != nil {
		for c := range s.conns {
			v += r.live(&c.stats).Load()
		}
	}
	return v
}

// statsLocked builds the STATS payload; callers hold s.mu. Each counter
// is the folded registry base plus the live connections' local cells
// (single-writer atomics, safe to Load concurrently) — so the snapshot
// reflects in-flight traffic without the data path ever taking the
// mutex. The core runtime's combiner-owned counters are consistent only
// at quiescence and are deliberately excluded.
func (s *Server) statsLocked() []byte {
	var out []byte
	if s.cfg.Store != "" {
		out = fmt.Appendf(out, "server/store %s\n", s.cfg.Store)
	}
	for _, r := range s.statRows() {
		out = fmt.Appendf(out, "%s %d\n", r.c.Name(), s.liveValueLocked(r))
	}
	return out
}

// Store returns the configured engine name ("" when not set).
func (s *Server) Store() string { return s.cfg.Store }

// ExportMetrics captures every server/ instrument live: the counter map
// (histogram sum/count components excluded) and the server/batch
// histogram, each the folded registry base plus a sum over the open
// connections' cells. It is the management plane's scrape hook — safe to
// call at any time, including while serving and after Shutdown.
func (s *Server) ExportMetrics() (metrics.Snapshot, []metrics.HistSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	counters := make(metrics.Snapshot)
	var batch metrics.HistSnapshot
	for _, r := range s.statRows() {
		v := s.liveValueLocked(r)
		switch r.c {
		case s.cBatchSum:
			batch.Sum = v
		case s.cBatchCount:
			batch.Count = v
		default:
			counters[r.c.Name()] = v
		}
	}
	// Histogram shape: registry base (folds happen under s.mu, so the
	// read is consistent) plus the live connections' atomic bucket cells.
	batch.Name = s.hBatch.Name()
	for i := range batch.Buckets {
		batch.Buckets[i] = s.hBatch.Bucket(i)
		for c := range s.conns {
			batch.Buckets[i] += c.stats.batchBuckets[i].Load()
		}
	}
	return counters, []metrics.HistSnapshot{batch}
}

// ConnInfo is one live connection's management-plane snapshot: identity,
// the tunables it captured at accept, and its per-connection counters
// (loaded from the same cells the data path accumulates into).
type ConnInfo struct {
	// Remote is the connection's remote address.
	Remote string `json:"remote"`
	// AgeSeconds is the time since accept.
	AgeSeconds float64 `json:"age_seconds"`
	// Window is the coalescing window captured at accept.
	Window int `json:"window"`
	// Requests counts requests fully read from the socket.
	Requests uint64 `json:"requests"`
	// Responses counts response frames written.
	Responses uint64 `json:"responses"`
	// Rejected counts operations answered Rejected.
	Rejected uint64 `json:"rejected"`
	// BadRequests counts operations answered BadRequest.
	BadRequests uint64 `json:"bad_requests"`
	// ScanPairs counts pairs returned across the connection's SCANs.
	ScanPairs uint64 `json:"scan_pairs"`
	// SlowOps counts batches that crossed the slow-op threshold.
	SlowOps uint64 `json:"slow_ops"`
	// WriteTimeouts counts write-deadline expiries (0 or 1).
	WriteTimeouts uint64 `json:"write_timeouts"`
	// Batches counts coalesced serve batches; BatchOps sums their sizes
	// (mean batch size = BatchOps/Batches).
	Batches uint64 `json:"batches"`
	// BatchOps sums the sizes of the connection's serve batches.
	BatchOps uint64 `json:"batch_ops"`
	// Ops maps protocol op name (get, put, update, delete, scan, stats)
	// to the connection's request count for it.
	Ops map[string]uint64 `json:"ops"`
}

// opNames maps protocol op codes to their lowercase wire names.
var opNames = map[uint8]string{
	OpGet: "get", OpPut: "put", OpUpdate: "update",
	OpDelete: "delete", OpScan: "scan", OpStats: "stats",
}

// ConnsInfo snapshots every live connection for the management plane,
// sorted by age (oldest first) then remote address.
func (s *Server) ConnsInfo() []ConnInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	out := make([]ConnInfo, 0, len(s.conns))
	for c := range s.conns {
		st := &c.stats
		info := ConnInfo{
			Remote:        c.remote,
			AgeSeconds:    now.Sub(c.opened).Seconds(),
			Window:        c.tun.Window,
			Requests:      st.requests.Load(),
			Responses:     st.responses.Load(),
			Rejected:      st.rejected.Load(),
			BadRequests:   st.badReq.Load(),
			ScanPairs:     st.scanned.Load(),
			SlowOps:       st.slowOps.Load(),
			WriteTimeouts: st.timeouts.Load(),
			Batches:       st.batchCount.Load(),
			BatchOps:      st.batchSum.Load(),
			Ops:           make(map[string]uint64, len(opNames)),
		}
		for op, name := range opNames {
			info.Ops[name] = st.ops[op].Load()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AgeSeconds != out[j].AgeSeconds {
			return out[i].AgeSeconds > out[j].AgeSeconds
		}
		return out[i].Remote < out[j].Remote
	})
	return out
}
