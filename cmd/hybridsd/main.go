// Command hybridsd serves a native HybriDS map over TCP: it builds a
// core.Hybrid (goroutine combiners over per-partition stores, the
// software stand-in for the paper's NMP hardware) and exposes it through
// the internal/server binary protocol (GET/PUT/UPDATE/DELETE/SCAN/STATS;
// see docs/SERVING.md).
//
// The -store flag selects any engine registered in internal/store
// (btree, skiplist, bskiplist, ...); -levels tunes engine height
// uniformly where the engine supports it.
//
// The -admin-addr flag (off by default) starts the HTTP management
// plane of internal/admin on a second listener: Prometheus /metrics,
// /metrics.json, live GET/POST /config, GET/POST /boundary, /conns,
// /partitions (see docs/ADMIN.md). Non-localhost admin binds require
// -admin-token, which mutating endpoints then demand as a bearer token.
// -slow-op enables structured slow-op logging to stderr for batches
// slower than the threshold.
//
// The -boundary flag picks the host/NMP boundary policy: "static" (the
// paper's fixed split) or "adaptive" (a feedback loop over the
// partition queueing proxies that migrates levels at runtime). Either
// way POST /boundary migrates levels live, without restart.
//
// Usage:
//
//	hybridsd [-addr :7070] [-partitions 8] [-keymax 4194304]
//	         [-store btree] [-window 16] [-inflight 64]
//	         [-maxconns 0] [-scan-limit 1024] [-write-timeout 10s]
//	         [-mailbox 64] [-levels 0] [-boundary static]
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
	"strings"
	"sync"
	"syscall"
	"time"

	"hybrids/internal/admin"
	"hybrids/internal/boundary"
	"hybrids/internal/core"
	"hybrids/internal/metrics"
	"hybrids/internal/server"
	"hybrids/internal/store"
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
		partitions   = flag.Int("partitions", 8, "partition/combiner count (the paper's NMP vaults)")
		keyMax       = flag.Uint64("keymax", 1<<22, "exclusive key-space bound; valid keys are 1..keymax-1")
		engineName   = flag.String("store", "btree", "per-partition store engine: "+strings.Join(store.Names(), ", "))
		levels       = flag.Int("levels", 0, "structure height cap (0 = engine default; the B+ tree derives height from fan-out and ignores it)")
		mailbox      = flag.Int("mailbox", 64, "per-partition mailbox depth")
		window       = flag.Int("window", 16, "per-connection request coalescing window (Batcher.Apply size)")
		inflight     = flag.Int("inflight", 0, "per-connection in-flight response budget (default 4x window)")
		maxConns     = flag.Int("maxconns", 0, "max concurrent connections (0 = unlimited)")
		scanLimit    = flag.Int("scan-limit", 1024, "max pairs returned by one SCAN")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "slow-client write deadline (negative disables write deadlines)")
		adminAddr    = flag.String("admin-addr", "", "HTTP management-plane listen address (empty = disabled; non-localhost binds require -admin-token)")
		adminToken   = flag.String("admin-token", "", "bearer token required by mutating admin endpoints (required for non-localhost -admin-addr)")
		boundaryMode = flag.String("boundary", "static", "host/NMP boundary policy: static, adaptive")
		slowOp       = flag.Duration("slow-op", 0, "log batches slower than this threshold as JSON lines on stderr (0 = disabled)")
	)
	flag.Parse()

	eng, ok := store.Lookup(*engineName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown store %q (valid engines: %s)\n",
			*engineName, strings.Join(store.Names(), ", "))
		os.Exit(2)
	}
	if *levels != 0 && eng.MinLevels > 0 && *levels < eng.MinLevels {
		fmt.Fprintf(os.Stderr, "store %q requires -levels >= %d (got %d: the NMP floor is %d levels and at least one host level must remain)\n",
			eng.Name, eng.MinLevels, *levels, eng.NMPFloor)
		os.Exit(2)
	}
	pol, err := boundary.ParsePolicy(*boundaryMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	if *adminAddr != "" && *adminToken == "" && !loopbackAddr(*adminAddr) {
		fmt.Fprintf(os.Stderr, "refusing non-localhost -admin-addr %q without -admin-token (the mutating admin endpoints would be open; set a token or bind to localhost)\n",
			*adminAddr)
		os.Exit(2)
	}

	reg := metrics.NewRegistry()
	h := core.New(core.Config{
		Partitions:   *partitions,
		KeyMax:       *keyMax,
		MailboxDepth: *mailbox,
		NewStore:     eng.NewNative(store.Tuning{Levels: *levels}),
	})
	mgr := boundary.NewManager(pol, boundary.Plan{Splits: map[string]boundary.Split{
		eng.Name: eng.NativeSplit(store.Tuning{Levels: *levels}),
	}}, nil)

	// rebalance is the live boundary migration every mover funnels through
	// (POST /boundary, the adaptive ticker): validate the level count
	// against the engine, swap every partition store through its combiner
	// barrier, then make the new split the plan of record. The mutex
	// serializes movers so partition migrations never interleave.
	var rebalanceMu sync.Mutex
	rebalance := func(newLevels int) error {
		rebalanceMu.Lock()
		defer rebalanceMu.Unlock()
		if eng.MinLevels > 0 && newLevels < eng.MinLevels {
			return fmt.Errorf("store %q requires levels >= %d (got %d: the NMP floor is %d levels and at least one host level must remain)",
				eng.Name, eng.MinLevels, newLevels, eng.NMPFloor)
		}
		if eng.MinLevels == 0 && newLevels != 0 {
			return fmt.Errorf("store %q derives its height from fan-out; post levels 0 to rebuild", eng.Name)
		}
		t := store.Tuning{Levels: newLevels}
		if err := h.Rebalance(eng.NewNative(t)); err != nil {
			return err
		}
		mgr.Publish(eng.Name, eng.NativeSplit(t))
		return nil
	}
	srv := server.New(h, server.Config{
		Store:        eng.Name,
		Window:       *window,
		Inflight:     *inflight,
		MaxConns:     *maxConns,
		ScanLimit:    *scanLimit,
		WriteTimeout: *writeTimeout,
		SlowOp:       *slowOp,
		SlowOpLog:    os.Stderr,
		Metrics:      reg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hybridsd: serving %s/%d partitions on %s (window %d)\n",
		eng.Name, *partitions, ln.Addr(), *window)

	var adm *admin.Server
	admErrCh := make(chan error, 1)
	if *adminAddr != "" {
		adm = admin.New(admin.Config{
			Server:    srv,
			Hybrid:    h,
			Boundary:  mgr,
			Rebalance: rebalance,
			Token:     *adminToken,
			Static: map[string]string{
				"addr":       ln.Addr().String(),
				"store":      eng.Name,
				"partitions": fmt.Sprint(*partitions),
				"keymax":     fmt.Sprint(*keyMax),
				"mailbox":    fmt.Sprint(*mailbox),
				"scan_limit": fmt.Sprint(*scanLimit),
				"boundary":   pol.Name(),
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

	// With -boundary adaptive on a fixed-height engine, a background
	// ticker feeds the policy the queueing proxy the native stack does
	// have — mean mailbox depth per combine round, the saturation signal
	// cycle-level attribution stands in for on the simulator — and
	// migrates one level per decision through the same rebalance funnel
	// as POST /boundary.
	if pol.Name() == "adaptive" && eng.MinLevels > 0 {
		go func() {
			var lastOps, lastBatches, lastMailbox uint64
			tick := time.NewTicker(5 * time.Second)
			defer tick.Stop()
			for range tick.C {
				if h.Closed() {
					return
				}
				var ops, batches, mailboxSum uint64
				for p := 0; p < h.Partitions(); p++ {
					st := h.PartitionStats(p)
					ops += st.Ops
					batches += st.Batches
					mailboxSum += st.MailboxSum
				}
				dOps := ops - lastOps
				dBatches := batches - lastBatches
				dMailbox := mailboxSum - lastMailbox
				lastOps, lastBatches, lastMailbox = ops, batches, mailboxSum
				if dBatches == 0 {
					continue
				}
				fill := float64(dMailbox) / float64(dBatches) / float64(*mailbox)
				if fill > 1 {
					fill = 1
				}
				cur := mgr.Plan().Split(eng.Name)
				next, move := mgr.Observe(boundary.Sample{
					Engine:      eng.Name,
					OffloadWait: fill,
					Ops:         dOps,
				})
				if !move {
					continue
				}
				// The native mirror keeps the NMP floor pinned, so a
				// policy move of the boundary translates to a height
				// change: migrating a level NMP-side shrinks the host
				// portion (one level fewer), host-side grows it.
				newLevels := cur.Total - (next.NMP - cur.NMP)
				if err := rebalance(newLevels); err != nil {
					fmt.Fprintf(os.Stderr, "hybridsd: adaptive boundary move rejected: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "hybridsd: adaptive boundary moved to %d levels\n", newLevels)
				}
			}
		}()
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
