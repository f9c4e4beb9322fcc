// Package admin is the HTTP management plane of the serving stack: a
// separate listener (never the data-plane port) exposing the full
// metrics registry as JSON and Prometheus text exposition format, live
// configuration introspection and reconfiguration, and per-connection /
// per-partition load introspection. It is the observability surface an
// operator (or a Prometheus scraper) reaches without speaking the binary
// protocol; docs/ADMIN.md is the endpoint reference.
//
// Every read goes through the race-free export hooks of the layers it
// fronts — server.Server.ExportMetrics / ConnsInfo (mutex + single-writer
// cells) and core.Hybrid.ExportMetrics / PartitionStats (combiner
// barriers) — so scraping a loaded server perturbs nothing on the data
// path and is safe under the race detector. The plane stays functional
// through and after a drain: the intended shutdown order is data-plane
// Shutdown, then Hybrid.Close, and only then Close on the admin listener,
// so the final folded counters remain scrapeable.
package admin

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/metrics"
	"hybrids/internal/server"
)

// Config wires the management plane to the layers it introspects.
type Config struct {
	// Server is the data-plane server (required): metrics, live
	// connections, tunables.
	Server *server.Server
	// Hybrid is the partition runtime under the server (required):
	// per-partition metrics and snapshots.
	Hybrid *core.Hybrid
	// Token, when set, is the bearer token the mutating endpoint (POST
	// /config) requires via "Authorization: Bearer <token>". Empty leaves
	// the plane unauthenticated — acceptable only on localhost binds.
	Token string
	// Static carries immutable startup facts (partitions, data-plane
	// address, ...) echoed by GET /config so an operator sees
	// the whole effective configuration in one place.
	Static map[string]string
}

// Server is the HTTP management plane. Construct with New, start with
// Serve or ListenAndServe, stop with Close. Handlers are safe for
// concurrent use and remain usable after the data plane has drained.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu   sync.Mutex
	ln   net.Listener
	http *http.Server
}

// New builds the management plane over cfg.
func New(cfg Config) *Server {
	a := &Server{cfg: cfg, mux: http.NewServeMux()}
	a.mux.HandleFunc("GET /{$}", a.handleIndex)
	a.mux.HandleFunc("GET /metrics", a.handleProm)
	a.mux.HandleFunc("GET /metrics.json", a.handleMetricsJSON)
	a.mux.HandleFunc("GET /config", a.handleConfigGet)
	a.mux.HandleFunc("POST /config", a.auth(a.handleConfigPost))
	a.mux.HandleFunc("GET /conns", a.handleConns)
	a.mux.HandleFunc("GET /partitions", a.handlePartitions)
	return a
}

// auth wraps a mutating handler with the bearer-token check. With no
// token configured the handler runs as-is; with one, requests must carry
// "Authorization: Bearer <token>" (compared in constant time).
func (a *Server) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if a.cfg.Token != "" {
			const prefix = "Bearer "
			got := r.Header.Get("Authorization")
			if !strings.HasPrefix(got, prefix) ||
				subtle.ConstantTimeCompare([]byte(got[len(prefix):]), []byte(a.cfg.Token)) != 1 {
				http.Error(w, "admin: missing or invalid bearer token", http.StatusUnauthorized)
				return
			}
		}
		next(w, r)
	}
}

// Handler returns the plane's HTTP handler (for tests and embedding).
func (a *Server) Handler() http.Handler { return a.mux }

// ListenAndServe listens on the TCP address addr (bind it to localhost
// unless the network is trusted — the plane is unauthenticated) and
// serves until Close. Returns nil after a Close-initiated shutdown.
func (a *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return a.Serve(ln)
}

// Serve serves the management plane on ln until Close.
func (a *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: a.mux, ReadHeaderTimeout: 5 * time.Second}
	a.mu.Lock()
	a.ln, a.http = ln, srv
	a.mu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Addr returns the listener's address (nil before Serve), letting tests
// bind port 0 and dial back.
func (a *Server) Addr() net.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ln == nil {
		return nil
	}
	return a.ln.Addr()
}

// Close shuts the management listener down. In a full drain it runs
// last — after the data plane's Shutdown and the hybrid map's Close — so
// the final counters stay scrapeable until the very end.
func (a *Server) Close() error {
	a.mu.Lock()
	srv := a.http
	a.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// export merges the server-plane and core-plane metric exports into one
// namespace: every counter and histogram a hybridsd registry carries.
func (a *Server) export() (metrics.Snapshot, []metrics.HistSnapshot) {
	counters, hists := a.cfg.Server.ExportMetrics()
	coreCounters, coreHists := a.cfg.Hybrid.ExportMetrics()
	for name, v := range coreCounters {
		counters[name] = v
	}
	hists = append(hists, coreHists...)
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	return counters, hists
}

// handleIndex lists the plane's endpoints.
func (a *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "hybridsd management plane (docs/ADMIN.md)\n\n"+
		"GET  /metrics       Prometheus text exposition\n"+
		"GET  /metrics.json  full registry as JSON\n"+
		"GET  /config        live + static configuration\n"+
		"POST /config        live reconfiguration (partial JSON)\n"+
		"GET  /conns         per-connection introspection\n"+
		"GET  /partitions    per-partition introspection\n")
}

// handleProm serves the Prometheus text exposition of the merged
// registry export.
func (a *Server) handleProm(w http.ResponseWriter, _ *http.Request) {
	counters, hists := a.export()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeProm(w, a.cfg.Server.Store(), counters, hists)
}

// jsonHist is one histogram's JSON rendering.
type jsonHist struct {
	// Sum is the total of observed samples.
	Sum uint64 `json:"sum"`
	// Count is the number of observed samples.
	Count uint64 `json:"count"`
	// Mean is Sum/Count (0 when empty).
	Mean float64 `json:"mean"`
	// Buckets counts samples by bit length: Buckets[i] holds samples in
	// [2^(i-1), 2^i), Buckets[0] counts zeros. Trailing zero buckets are
	// trimmed.
	Buckets []uint64 `json:"buckets"`
}

// metricsDoc is the /metrics.json response body.
type metricsDoc struct {
	// Store is the configured engine name (omitted when unset).
	Store string `json:"store,omitempty"`
	// Counters maps registry counter name to value (histogram sum/count
	// components excluded — see Histograms).
	Counters metrics.Snapshot `json:"counters"`
	// Histograms maps registry histogram name to its state.
	Histograms map[string]jsonHist `json:"histograms"`
}

// handleMetricsJSON serves the merged registry export as JSON.
func (a *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	counters, hists := a.export()
	doc := metricsDoc{
		Store:      a.cfg.Server.Store(),
		Counters:   counters,
		Histograms: make(map[string]jsonHist, len(hists)),
	}
	for _, h := range hists {
		hi := len(h.Buckets)
		for hi > 0 && h.Buckets[hi-1] == 0 {
			hi--
		}
		doc.Histograms[h.Name] = jsonHist{
			Sum:     h.Sum,
			Count:   h.Count,
			Mean:    h.Mean(),
			Buckets: append([]uint64(nil), h.Buckets[:hi]...),
		}
	}
	writeJSON(w, doc)
}

// configDoc is the GET /config response body and, with every field
// optional, the POST /config request body (absent fields keep their
// current value). Durations are Go duration strings ("10s", "1.5ms");
// negative write_timeout disables write deadlines, "0s" slow_op disables
// slow-op sampling.
type configDoc struct {
	// Window is the per-connection request coalescing window.
	Window *int `json:"window,omitempty"`
	// MaxConns caps concurrently served connections (0 = unlimited).
	MaxConns *int `json:"maxconns,omitempty"`
	// WriteTimeout is the slow-client write deadline.
	WriteTimeout *string `json:"write_timeout,omitempty"`
	// SlowOp is the slow-op logging threshold.
	SlowOp *string `json:"slow_op,omitempty"`
	// ConfigEpoch counts successful reconfigurations (response only).
	ConfigEpoch *uint64 `json:"config_epoch,omitempty"`
	// Static echoes the immutable startup facts (response only).
	Static map[string]string `json:"static,omitempty"`
}

// configResponse renders the server's current tunables (plus epoch and
// static facts) as a configDoc.
func (a *Server) configResponse() configDoc {
	t := a.cfg.Server.Tunables()
	wt, so := t.WriteTimeout.String(), t.SlowOp.String()
	counters, _ := a.cfg.Server.ExportMetrics()
	epoch := counters["server/config_epoch"]
	return configDoc{
		Window:       &t.Window,
		MaxConns:     &t.MaxConns,
		WriteTimeout: &wt,
		SlowOp:       &so,
		ConfigEpoch:  &epoch,
		Static:       a.cfg.Static,
	}
}

// handleConfigGet serves the live + static configuration.
func (a *Server) handleConfigGet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, a.configResponse())
}

// handleConfigPost applies a partial reconfiguration: fields present in
// the body overlay the current tunables, the result is validated and
// atomically published (server.SetTunables), and the new effective
// configuration is returned. New data-plane connections pick the values
// up immediately; established connections keep the tunables they were
// accepted under.
func (a *Server) handleConfigPost(w http.ResponseWriter, r *http.Request) {
	var req configDoc
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "config: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		http.Error(w, "config: trailing data after the JSON value", http.StatusBadRequest)
		return
	}
	t := a.cfg.Server.Tunables()
	if req.Window != nil {
		t.Window = *req.Window
	}
	if req.MaxConns != nil {
		t.MaxConns = *req.MaxConns
	}
	if req.WriteTimeout != nil {
		d, err := time.ParseDuration(*req.WriteTimeout)
		if err != nil {
			http.Error(w, "config: write_timeout: "+err.Error(), http.StatusBadRequest)
			return
		}
		t.WriteTimeout = d
	}
	if req.SlowOp != nil {
		d, err := time.ParseDuration(*req.SlowOp)
		if err != nil {
			http.Error(w, "config: slow_op: "+err.Error(), http.StatusBadRequest)
			return
		}
		t.SlowOp = d
	}
	if _, err := a.cfg.Server.SetTunables(t); err != nil {
		http.Error(w, "config: "+err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, a.configResponse())
}

// handleConns serves the live connection table.
func (a *Server) handleConns(w http.ResponseWriter, _ *http.Request) {
	infos := a.cfg.Server.ConnsInfo()
	if infos == nil {
		infos = []server.ConnInfo{}
	}
	writeJSON(w, infos)
}

// handlePartitions serves every partition's snapshot, in partition
// order (each read through the partition's barrier — see
// core.Hybrid.PartitionStats).
func (a *Server) handlePartitions(w http.ResponseWriter, _ *http.Request) {
	h := a.cfg.Hybrid
	out := make([]core.PartitionStats, h.Partitions())
	for p := range out {
		out[p] = h.PartitionStats(p)
	}
	writeJSON(w, out)
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
