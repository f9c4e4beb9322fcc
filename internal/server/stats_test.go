package server

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/metrics"
)

// connCounters maps a /conns entry back onto the server/ counters it
// reports.
func connCounters(ci ConnInfo) map[string]uint64 {
	m := map[string]uint64{
		"server/requests":       ci.Requests,
		"server/responses":      ci.Responses,
		"server/rejected":       ci.Rejected,
		"server/bad_requests":   ci.BadRequests,
		"server/scan_pairs":     ci.ScanPairs,
		"server/slow_ops":       ci.SlowOps,
		"server/write_timeouts": ci.WriteTimeouts,
		"server/batch/count":    ci.Batches,
		"server/batch/sum":      ci.BatchOps,
	}
	for op, v := range ci.Ops {
		m["server/ops/"+op] = v
	}
	return m
}

// TestCounterViewsAgree drives a fixed mixed sequence over two
// connections, closes one, and requires every server/ counter to read the
// same in each of its views: STATS (every registered counter, in name
// order), ExportMetrics, the folded registry base plus the open
// connection's /conns values, and the registry after Shutdown.
func TestCounterViewsAgree(t *testing.T) {
	reg := metrics.NewRegistry()
	// A 1ns threshold makes every batch slow, so server/slow_ops moves;
	// with no log writer nothing is written.
	s, _, addr := newTestServer(t, Config{Window: 4, SlowOp: time.Nanosecond, Metrics: reg},
		core.Config{Partitions: 4, KeyMax: 1 << 16})
	seq := func(base uint64) []Request {
		var reqs []Request
		for k := base; k < base+10; k++ {
			reqs = append(reqs, Request{Op: OpPut, Key: k, Value: k})
		}
		for k := base; k < base+12; k++ {
			reqs = append(reqs, Request{Op: OpGet, Key: k})
		}
		return append(reqs,
			Request{Op: OpScan, Key: base, Value: 6},
			Request{Op: OpUpdate, Key: base, Value: 1},
			Request{Op: OpDelete, Key: base + 1},
			Request{Op: OpStats},
			Request{Op: OpGet, Key: 0},
			Request{Op: 99, Key: 1},
			Request{Op: OpGet, Key: base + 2},
		)
	}
	var clients [2]*Client
	sent := 0
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		clients[i] = c
		reqs := seq(uint64(i)*1000 + 1)
		if _, err := c.Pipeline(reqs); err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		sent += len(reqs)
	}
	clients[0].Close()

	// The closed connection folds on its way out, and a response is
	// counted after its write returns: wait for both.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c, _ := s.ExportMetrics()
		if c["server/conns_closed"] == 1 && c["server/responses"] == uint64(sent) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never settled: %v", c)
		}
	}

	var names []string
	for _, n := range reg.Names() {
		if strings.HasPrefix(n, "server/") {
			names = append(names, n)
		}
	}
	var statsNames []string
	stats := make(map[string]uint64)
	for _, line := range strings.Split(strings.TrimSuffix(string(s.StatsText()), "\n"), "\n") {
		var name string
		var v uint64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err != nil {
			t.Fatalf("STATS line %q: %v", line, err)
		}
		statsNames = append(statsNames, name)
		stats[name] = v
	}
	if !slices.Equal(statsNames, names) {
		t.Fatalf("STATS lists\n  %v\nthe registry holds, in name order,\n  %v", statsNames, names)
	}

	exported, hists := s.ExportMetrics()
	if len(hists) != 1 || hists[0].Name != "server/batch" {
		t.Fatalf("ExportMetrics histograms = %+v, want server/batch alone", hists)
	}
	exported["server/batch/sum"], exported["server/batch/count"] = hists[0].Sum, hists[0].Count
	conns := s.ConnsInfo()
	if len(conns) != 1 {
		t.Fatalf("%d connections open, want 1", len(conns))
	}
	live := connCounters(conns[0])
	for _, name := range names {
		c, _ := reg.LookupCounter(name)
		if got := c.Value() + live[name]; got != stats[name] {
			t.Errorf("%s: folded base %d + /conns %d = %d, STATS %d", name, c.Value(), live[name], got, stats[name])
		}
		if exported[name] != stats[name] {
			t.Errorf("%s: ExportMetrics %d, STATS %d", name, exported[name], stats[name])
		}
	}
	for name, want := range map[string]uint64{
		"server/requests": uint64(sent), "server/bad_requests": 4, "server/ops/stats": 2,
		"server/scan_pairs": 12, "server/conns_accepted": 2,
	} {
		if stats[name] != want {
			t.Errorf("%s = %d, want %d", name, stats[name], want)
		}
	}
	if stats["server/slow_ops"] == 0 {
		t.Error("server/slow_ops = 0 at a 1ns threshold")
	}

	// Shutdown closes the open connection: one more close, and every
	// other counter and the histogram's shape fold unchanged.
	s.Shutdown()
	stats["server/conns_closed"]++
	for _, name := range names {
		if c, _ := reg.LookupCounter(name); c.Value() != stats[name] {
			t.Errorf("%s after Shutdown: registry %d, want %d", name, c.Value(), stats[name])
		}
	}
	if got := reg.Histogram("server/batch").Snapshot(); got != hists[0] {
		t.Errorf("server/batch after Shutdown = %+v, ExportMetrics had %+v", got, hists[0])
	}
}
