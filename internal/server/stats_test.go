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

// exported merges ExportMetrics' counters with the server/batch
// histogram's sum and count, so it holds every stat by name.
func exported(t *testing.T, s *Server) (map[string]uint64, metrics.HistSnapshot) {
	t.Helper()
	counters, hists := s.ExportMetrics()
	if len(hists) != 1 || hists[0].Name != "server/batch" {
		t.Fatalf("ExportMetrics histograms = %+v, want server/batch alone", hists)
	}
	counters["server/batch/sum"], counters["server/batch/count"] = hists[0].Sum, hists[0].Count
	return counters, hists[0]
}

// TestCounterViewsAgree drives a fixed mixed sequence over two
// connections, closes one, and requires every server/ counter to read the
// same in each of its views: STATS (every stat, in name order),
// ExportMetrics, the server's base cells (the closed connection's
// counts added in) plus the open connection's /conns values, and
// ExportMetrics after Shutdown.
func TestCounterViewsAgree(t *testing.T) {
	// A 1ns threshold makes every batch slow, so server/slow_ops moves;
	// with no log writer nothing is written.
	s, _, addr := newTestServer(t, Config{Window: 4, SlowOp: time.Nanosecond},
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

	// The closed connection's cells are added into base on its way out,
	// and a response is counted after its write returns: wait for both.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c, _ := s.ExportMetrics()
		if c["server/conns_closed"] == 1 && c["server/responses"] == uint64(sent) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never settled: %v", c)
		}
	}

	names := statNames[:]
	if !slices.IsSorted(names) {
		t.Fatalf("stats are not declared in name order: %v", names)
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
		t.Fatalf("STATS lists\n  %v\nthe stats are, in name order,\n  %v", statsNames, names)
	}

	exports, hist := exported(t, s)
	conns := s.ConnsInfo()
	if len(conns) != 1 {
		t.Fatalf("%d connections open, want 1", len(conns))
	}
	live := connCounters(conns[0])
	for i, name := range names {
		base := s.base.cells[i].Load()
		if got := base + live[name]; got != stats[name] {
			t.Errorf("%s: base %d + /conns %d = %d, STATS %d", name, base, live[name], got, stats[name])
		}
		if exports[name] != stats[name] {
			t.Errorf("%s: ExportMetrics %d, STATS %d", name, exports[name], stats[name])
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
	// other counter and the histogram's shape are added in unchanged.
	s.Shutdown()
	stats["server/conns_closed"]++
	after, afterHist := exported(t, s)
	for _, name := range names {
		if after[name] != stats[name] {
			t.Errorf("%s after Shutdown: ExportMetrics %d, want %d", name, after[name], stats[name])
		}
	}
	if afterHist != hist {
		t.Errorf("server/batch after Shutdown = %+v, before it %+v", afterHist, hist)
	}
}

// TestClosedConnsHitsCounted opens connections that read one hot key,
// so most of their reads are host-portion hits counted in the core's
// cells, and closes all but one: core/p*/ops still counts every read the
// connections issued, the closed ones' included.
func TestClosedConnsHitsCounted(t *testing.T) {
	const conns, reads = 8, 40
	s, h, addr := newTestServer(t, Config{Window: 4}, core.Config{Partitions: 2, KeyMax: 1 << 16})
	h.Put(7, 70)
	var open *Client
	for i := range conns {
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		reqs := make([]Request, reads)
		for j := range reqs {
			reqs[j] = Request{Op: OpGet, Key: 7}
		}
		if _, err := c.Pipeline(reqs); err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		if i == 0 {
			open = c
			continue
		}
		c.Close()
	}
	defer open.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if c, _ := s.ExportMetrics(); c["server/conns_closed"] == conns-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the closed connections never finished")
		}
	}
	counters, _ := h.ExportMetrics()
	if ops := counters["core/p0/ops"]; ops != 1+conns*reads {
		t.Errorf("core/p0/ops = %d, want the Put and %d reads", ops, conns*reads)
	}
}
