// Command hybridsd serves a native HybriDS map over TCP: it builds a
// core.Hybrid (per-partition B+ trees, each served by the caller holding
// its lock, the stand-in for the paper's NMP hardware) and exposes it
// through the internal/server binary protocol (GET/PUT/UPDATE/DELETE/
// SCAN/STATS; see docs/SERVING.md).
//
// The -admin-addr flag (off by default) starts the HTTP management
// plane of internal/admin on a second listener: Prometheus /metrics,
// /metrics.json, live GET/POST /config, /conns, /partitions (see
// docs/ADMIN.md). Non-localhost admin binds require -admin-token, which
// POST /config then demands as a bearer token.
// -slow-op enables structured slow-op logging to stderr for batches
// slower than the threshold.
//
// Usage:
//
//	hybridsd [-addr :7070] [-partitions 8] [-keymax 4194304]
//	         [-window 64] [-maxconns 0]
//	         [-scan-limit 1024] [-write-timeout 10s]
//	         [-admin-addr 127.0.0.1:7071] [-admin-token ""] [-slow-op 0]
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting,
// answers every request already read from every connection, then closes
// the map and prints the final server metrics to stderr. The admin
// listener closes last, so the drained totals stay scrapeable through
// the shutdown sequence.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybrids/internal/admin"
	"hybrids/internal/core"
	"hybrids/internal/server"
)

// loopbackAddr reports whether addr binds only a loopback interface, the
// condition under which an unauthenticated admin plane is acceptable.
func loopbackAddr(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = addr
	}
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "TCP listen address")
		partitions   = flag.Int("partitions", 8, "partition count (the paper's NMP vaults)")
		keyMax       = flag.Uint64("keymax", 1<<22, "exclusive key-space bound; valid keys are 1..keymax-1")
		window       = flag.Int("window", server.DefaultWindow, "per-connection request coalescing window: the most pipelined requests one Batcher.Apply serves")
		maxConns     = flag.Int("maxconns", 0, "max concurrent connections (0 = unlimited)")
		scanLimit    = flag.Int("scan-limit", 1024, "max pairs returned by one SCAN")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "slow-client write deadline (negative disables write deadlines)")
		adminAddr    = flag.String("admin-addr", "", "HTTP management-plane listen address (empty = disabled; non-localhost binds require -admin-token)")
		adminToken   = flag.String("admin-token", "", "bearer token required by mutating admin endpoints (required for non-localhost -admin-addr)")
		slowOp       = flag.Duration("slow-op", 0, "log batches slower than this threshold as JSON lines on stderr (0 = disabled)")
	)
	flag.Parse()

	// Values server.New or core.New would silently replace by a default
	// are refused, so the banner and GET /config report what runs.
	switch {
	case *partitions <= 0 || *window <= 0 || *keyMax == 0 || *scanLimit <= 0:
		fmt.Fprintf(os.Stderr, "-partitions, -window, -keymax and -scan-limit must be positive (got %d, %d, %d, %d)\n",
			*partitions, *window, *keyMax, *scanLimit)
		os.Exit(2)
	case *window > server.MaxWindow:
		fmt.Fprintf(os.Stderr, "-window %d exceeds the maximum %d\n", *window, server.MaxWindow)
		os.Exit(2)
	case *maxConns < 0 || *slowOp < 0:
		fmt.Fprintf(os.Stderr, "-maxconns and -slow-op must not be negative (got %d, %v)\n", *maxConns, *slowOp)
		os.Exit(2)
	case *writeTimeout == 0:
		fmt.Fprintln(os.Stderr, "-write-timeout must not be 0 (a negative value disables write deadlines)")
		os.Exit(2)
	}
	if *adminAddr != "" && *adminToken == "" && !loopbackAddr(*adminAddr) {
		fmt.Fprintf(os.Stderr, "refusing non-localhost -admin-addr %q without -admin-token (the mutating admin endpoints would be open; set a token or bind to localhost)\n",
			*adminAddr)
		os.Exit(2)
	}

	h := core.New(core.Config{Partitions: *partitions, KeyMax: *keyMax})
	srv := server.New(h, server.Config{
		Window:       *window,
		MaxConns:     *maxConns,
		ScanLimit:    *scanLimit,
		WriteTimeout: *writeTimeout,
		SlowOp:       *slowOp,
		SlowOpLog:    os.Stderr,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hybridsd: serving %d partitions on %s (window %d)\n",
		*partitions, ln.Addr(), *window)

	var adm *admin.Server
	admErrCh := make(chan error, 1)
	if *adminAddr != "" {
		adm = admin.New(admin.Config{
			Server: srv,
			Hybrid: h,
			Token:  *adminToken,
			Static: map[string]string{
				"addr":       ln.Addr().String(),
				"partitions": fmt.Sprint(*partitions),
				"keymax":     fmt.Sprint(*keyMax),
				"scan_limit": fmt.Sprint(*scanLimit),
			},
		})
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "admin listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hybridsd: admin plane on http://%s (docs/ADMIN.md)\n", aln.Addr())
		go func() { admErrCh <- adm.Serve(aln) }()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "hybridsd: %v, draining...\n", sig)
		srv.Shutdown()
		<-errCh
	case err := <-errCh:
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
	}
	h.Close()
	fmt.Fprintf(os.Stderr, "hybridsd: drained, %d keys stored\n%s", h.Len(), srv.StatsText())
	// The admin plane closes last so the drained totals stay scrapeable
	// until the very end of the shutdown sequence.
	if adm != nil {
		adm.Close()
		<-admErrCh
	}
}
