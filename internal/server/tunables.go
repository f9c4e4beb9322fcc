package server

import (
	"errors"
	"fmt"
	"time"
)

// Tunables is the live-reconfigurable subset of Config: the knobs an
// operator may change on a running server through the management plane
// (POST /config on the admin listener) without a restart. A connection
// captures the tunables current at accept time and keeps them for its
// lifetime, so reconfiguration is race-free by construction: existing
// connections finish under the values they started with, new connections
// pick up the new values, and the swap itself is one atomic pointer
// store. Every successful swap increments the server/config_epoch
// counter.
type Tunables struct {
	// Window is the per-connection request coalescing window (see
	// Config.Window), in [1, MaxWindow]. server.New replaces a value
	// outside it by DefaultWindow; SetTunables rejects it.
	Window int
	// MaxConns caps concurrently served connections (see
	// Config.MaxConns); 0 means unlimited. Applied at accept time, so
	// lowering it never disconnects existing clients.
	MaxConns int
	// WriteTimeout is the slow-client write deadline (see
	// Config.WriteTimeout); negative disables write deadlines. server.New
	// replaces 0 by 10s; SetTunables rejects it.
	WriteTimeout time.Duration
	// SlowOp is the slow-operation logging threshold: a served batch
	// whose wall-clock time reaches it emits one structured JSON line to
	// the server's slow-op log (see Config.SlowOpLog). 0 disables
	// sampling and its timing overhead entirely.
	SlowOp time.Duration
}

// normalize replaces each field that is out of bounds by its default and
// reports every such field: server.New keeps the result, SetTunables
// rejects it.
func (t Tunables) normalize() (Tunables, error) {
	var errs []error
	if t.Window <= 0 || t.Window > MaxWindow {
		errs = append(errs, fmt.Errorf("server: window %d is outside [1, %d]", t.Window, MaxWindow))
		t.Window = DefaultWindow
	}
	if t.MaxConns < 0 {
		errs = append(errs, fmt.Errorf("server: maxconns %d is negative", t.MaxConns))
		t.MaxConns = 0
	}
	if t.SlowOp < 0 {
		errs = append(errs, fmt.Errorf("server: slow-op threshold %v is negative", t.SlowOp))
		t.SlowOp = 0
	}
	if t.WriteTimeout == 0 {
		errs = append(errs, errors.New("server: write timeout must not be 0"))
		t.WriteTimeout = 10 * time.Second
	}
	return t, errors.Join(errs...)
}

// DefaultWindow is the window of a Config that sets none: a client flush
// of 64 requests is one Batcher.Apply, about 16 operations per partition
// at 4 partitions, so a contended round's wait stays inside its spin.
const DefaultWindow = 64

// MaxWindow is the sanity bound on the coalescing window: large enough
// for any sane deployment, small enough that a fat-fingered POST /config
// cannot make every new connection allocate gigantic batch scratch.
const MaxWindow = 1 << 16

// Tunables returns the server's current live configuration.
func (s *Server) Tunables() Tunables {
	return *s.tun.Load()
}

// SetTunables validates and atomically publishes a new live
// configuration, refusing it if any field is out of bounds: a window
// outside [1, MaxWindow], a negative MaxConns or SlowOp, or a zero
// WriteTimeout. New connections pick the values up immediately; existing
// connections keep the tunables they captured at accept. On success the
// server/config_epoch counter increments (under the server mutex, like
// every write to base), so scrapers can tell republishes apart.
func (s *Server) SetTunables(t Tunables) error {
	if _, err := t.normalize(); err != nil {
		return err
	}
	s.mu.Lock()
	s.tun.Store(&t)
	s.base.cells[statConfigEpoch].Inc()
	s.mu.Unlock()
	return nil
}
