package server

import (
	"net"
	"testing"

	"hybrids/internal/core"
)

// TestServePathAllocs pins the data plane's zero-allocation contract: a
// steady-state pipelined scalar operation, and a pipelined window of
// SCANs one of which crosses a partition boundary, perform no heap
// allocation anywhere on the path — client encode, the server's
// connection loop (frame decode, coalescing, batcher window and the
// crossing scan's barrier, core round, response encode, socket write) and
// client decode into pooled pairs handed back with PutPairs. testing.AllocsPerRun counts mallocs process-wide, so the
// server's goroutines are inside the measurement, not just the client's.
func TestServePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	t.Run("window16", func(t *testing.T) { servePathAllocs(t, Config{Window: 16}) })
	t.Run("default", func(t *testing.T) { servePathAllocs(t, Config{}) })
}

// servePathAllocs runs TestServePathAllocs on one server configuration,
// with a full window of requests in flight.
func servePathAllocs(t *testing.T, cfg Config) {
	h := core.New(core.Config{Partitions: 4, KeyMax: 1 << 16})
	defer h.Close()
	s := New(h, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(ln)
	defer s.Shutdown()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	// 128 resident keys at the bottom of partition 0 and 8 on each side
	// of the boundary between partitions 0 and 1.
	const resident, span = 128, 1 << 14
	for k := uint64(1); k <= resident; k++ {
		if ok, err := cl.Put(k, k*3); err != nil || !ok {
			t.Fatalf("preload Put(%d) = %v, %v", k, ok, err)
		}
	}
	for k := uint64(span - 8); k < span+8; k++ {
		if ok, err := cl.Put(k, k*3); err != nil || !ok {
			t.Fatalf("preload Put(%d) = %v, %v", k, ok, err)
		}
	}

	depth := s.Tunables().Window
	reqs := make([]Request, depth)
	for i := range reqs {
		reqs[i] = Request{Op: OpGet, Key: uint64(i%resident) + 1}
	}
	round := func() {
		if err := cl.Send(reqs...); err != nil {
			t.Fatalf("send: %v", err)
		}
		for i := range reqs {
			resp, err := cl.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if resp.Status != StatusOK || resp.Value != reqs[i].Key*3 {
				t.Fatalf("get %d -> %+v", reqs[i].Key, resp)
			}
		}
	}
	// Scans inside partition 0 and, last, one from 4 keys below the
	// boundary that continues into partition 1.
	scans := make([]Request, depth)
	for i := range scans {
		scans[i] = Request{Op: OpScan, Key: uint64(i) + 1, Value: 8}
	}
	scans[depth-1].Key = span - 4
	scanRound := func() {
		if err := cl.Send(scans...); err != nil {
			t.Fatalf("send: %v", err)
		}
		for _, r := range scans {
			resp, err := cl.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if resp.Status != StatusOK || len(resp.Pairs) != 8 || resp.Pairs[0].Key != r.Key || resp.Pairs[7].Key != r.Key+7 {
				t.Fatalf("scan from %d -> %+v", r.Key, resp)
			}
			PutPairs(resp.Pairs)
		}
	}
	// Warm every pool and scratch buffer on both sides (future and scan
	// cursor pools, batcher index lists, coalescing slices, pair pools,
	// output buffer, client scratch).
	for i := 0; i < 64; i++ {
		round()
		scanRound()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("pipelined scalar round allocated %v times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, scanRound); avg != 0 {
		t.Errorf("pipelined window of SCANs, one across a partition boundary, allocated %v times, want 0", avg)
	}
}
