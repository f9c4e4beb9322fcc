package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path"
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
	// Window is the maximum number of pipelined requests, SCANs
	// included, one connection coalesces into a single core.Batcher.Apply
	// call (the §3.5 non-blocking window): every whole request already
	// read is one call, up to Window, so the core hop is paid once
	// per client flush. Defaults to DefaultWindow (64).
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
	// time a scan barrier holds a partition. Defaults to 1024.
	ScanLimit int
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
// core.Hybrid. Construct with New, start with Serve, stop with Shutdown.
// The server never closes the hybrid map: callers Shutdown the server
// first, then Close the map, so every request read before the drain
// began reaches its partitions.
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

	// mu guards the connection set, the lifecycle state and base. The
	// per-operation data path never takes it: connections accumulate
	// into their own connStats cells, added into base under mu only when
	// they close.
	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	wg       sync.WaitGroup // one per live connection

	// base holds the closed connections' cells, plus the server's own
	// counts (connections and the config epoch).
	base connStats
}

// New returns a server over h. The hybrid map must outlive the server
// (Shutdown before h.Close for a loss-free drain). A reconfigurable field
// outside its bounds is replaced by its default rather than rejected,
// matching the zero-value-usable Config contract; the other fields keep
// their values.
func New(h *core.Hybrid, cfg Config) *Server {
	tun, _ := Tunables{
		Window:       cfg.Window,
		MaxConns:     cfg.MaxConns,
		WriteTimeout: cfg.WriteTimeout,
		SlowOp:       cfg.SlowOp,
	}.normalize()
	if cfg.ScanLimit <= 0 {
		cfg.ScanLimit = 1024
	}
	s := &Server{h: h, cfg: cfg, conns: make(map[*conn]struct{})}
	s.tun.Store(&tun)
	return s
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
			s.base.cells[statConnsRefused].Inc()
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
		s.base.cells[statConnsAccepted].Inc()
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

// connClosed deregisters a finished connection: its cells are added
// into base under the server mutex (the only place the mutex and per-op
// counts ever meet). Called by the connection's own goroutine on its way
// out, so every cell is final.
func (s *Server) connClosed(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.base.cells[statConnsClosed].Inc()
	for i := range s.base.cells {
		s.base.cells[i].Add(c.stats.cells[i].Load())
	}
	for i := range s.base.batchBuckets {
		s.base.batchBuckets[i].Add(c.stats.batchBuckets[i].Load())
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

// liveLocked sums one stat's base cell with every open connection's
// cell; callers hold s.mu.
func (s *Server) liveLocked(i stat) uint64 {
	v := s.base.cells[i].Load()
	for c := range s.conns {
		v += c.stats.cells[i].Load()
	}
	return v
}

// statsLocked builds the STATS payload; callers hold s.mu. Each counter
// is the base cell plus the live connections' local cells
// (single-writer atomics, safe to Load concurrently) — so the snapshot
// reflects in-flight traffic without the data path ever taking the
// mutex. The core runtime's holder-owned counters are consistent only
// at quiescence and are deliberately excluded.
func (s *Server) statsLocked() []byte {
	var out []byte
	if s.cfg.Store != "" {
		out = fmt.Appendf(out, "server/store %s\n", s.cfg.Store)
	}
	for i, name := range statNames {
		out = fmt.Appendf(out, "%s %d\n", name, s.liveLocked(stat(i)))
	}
	return out
}

// Store returns the configured engine name ("" when not set).
func (s *Server) Store() string { return s.cfg.Store }

// ExportMetrics captures every server/ instrument live: the counter map
// (histogram sum/count components excluded) and the server/batch
// histogram, each the base cells plus a sum over the open connections'
// cells. It is the management plane's scrape hook — safe to call at any
// time, including while serving and after Shutdown.
func (s *Server) ExportMetrics() (metrics.Snapshot, []metrics.HistSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	counters := make(metrics.Snapshot, numStats)
	batch := metrics.HistSnapshot{Name: batchHist}
	for i, name := range statNames {
		v := s.liveLocked(stat(i))
		switch stat(i) {
		case statBatchSum:
			batch.Sum = v
		case statBatchCount:
			batch.Count = v
		default:
			counters[name] = v
		}
	}
	// Histogram shape: base (added to under s.mu, so the read is
	// consistent) plus the live connections' atomic bucket cells.
	for i := range batch.Buckets {
		batch.Buckets[i] = s.base.batchBuckets[i].Load()
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

// ConnsInfo snapshots every live connection for the management plane,
// sorted by age (oldest first) then remote address.
func (s *Server) ConnsInfo() []ConnInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	out := make([]ConnInfo, 0, len(s.conns))
	for c := range s.conns {
		cell := func(i stat) uint64 { return c.stats.cells[i].Load() }
		info := ConnInfo{
			Remote:        c.remote,
			AgeSeconds:    now.Sub(c.opened).Seconds(),
			Window:        c.tun.Window,
			Requests:      cell(statRequests),
			Responses:     cell(statResponses),
			Rejected:      cell(statRejected),
			BadRequests:   cell(statBadRequests),
			ScanPairs:     cell(statScanPairs),
			SlowOps:       cell(statSlowOps),
			WriteTimeouts: cell(statWriteTimeouts),
			Batches:       cell(statBatchCount),
			BatchOps:      cell(statBatchSum),
			Ops:           make(map[string]uint64, OpStats),
		}
		// An op's wire name is the last segment of its stat's name.
		for _, i := range opStat[OpGet:] {
			info.Ops[path.Base(statNames[i])] = cell(i)
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
