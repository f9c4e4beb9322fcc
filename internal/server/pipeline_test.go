package server

import (
	"encoding/binary"
	"io"
	"math/bits"
	"net"
	"slices"
	"testing"

	"hybrids/internal/core"
	"hybrids/internal/metrics"
)

// TestServerMixedPipelineBatches drives a pipelined burst whose STATS
// request splits a coalescing window mid-pipeline while its SCAN rides in
// a window with the other operations, and checks every response in order
// plus the exact batch-size histogram the splits must produce. net.Pipe makes the coalescing deterministic: the whole
// burst crosses in one write, so the server's reader sees it buffered
// and slices it purely by window size and batch boundaries.
func TestServerMixedPipelineBatches(t *testing.T) {
	h := core.New(core.Config{Partitions: 4, KeyMax: 1 << 16})
	defer h.Close()
	s := New(h, Config{Window: 8})
	sc, cc := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(newOneConnListener(sc)) }()
	cl := NewClient(cc)
	defer cl.Close()

	// 24 requests, window 8. The reader coalesces three windows of 8;
	// the STATS (request 12) is a batch boundary, the SCAN (request 7) is
	// not:
	//   window 1: PUT x6, SCAN, GET        -> batch 8
	//   window 2: GET x3 | STATS | GET x4  -> batches 3, 4
	//   window 3: GET x8                   -> batch 8
	reqs := make([]Request, 0, 24)
	for k := uint64(1); k <= 6; k++ {
		reqs = append(reqs, Request{Op: OpPut, Key: k, Value: k * 10})
	}
	reqs = append(reqs, Request{Op: OpScan, Key: 1, Value: 3})
	for k := uint64(1); k <= 4; k++ {
		reqs = append(reqs, Request{Op: OpGet, Key: k})
	}
	reqs = append(reqs, Request{Op: OpStats})
	for k := uint64(1); k <= 12; k++ {
		reqs = append(reqs, Request{Op: OpGet, Key: k})
	}

	resps, err := cl.Pipeline(reqs)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(resps), len(reqs))
	}
	for i := 0; i < 6; i++ {
		if resps[i].Status != StatusOK {
			t.Fatalf("PUT %d status %d", i+1, resps[i].Status)
		}
	}
	scan := resps[6]
	if scan.Status != StatusOK || len(scan.Pairs) != 3 {
		t.Fatalf("SCAN -> status %d, %d pairs, want OK/3", scan.Status, len(scan.Pairs))
	}
	for i, p := range scan.Pairs {
		if want := uint64(i + 1); p.Key != want || p.Value != want*10 {
			t.Fatalf("scan pair %d = %+v", i, p)
		}
	}
	PutPairs(scan.Pairs)
	for i := 7; i < 11; i++ {
		key := uint64(i - 6)
		if resps[i].Status != StatusOK || resps[i].Value != key*10 {
			t.Fatalf("GET %d -> %+v", key, resps[i])
		}
	}
	stats := resps[11]
	if stats.Status != StatusOK || len(stats.Stats) == 0 {
		t.Fatalf("STATS -> status %d, %d bytes", stats.Status, len(stats.Stats))
	}
	// The STATS snapshot is live: it must already include the first
	// fully served window (its own batch is counted only afterwards).
	if got := statValue(t, stats.Stats, "server/requests"); got < 8 {
		t.Errorf("mid-pipeline server/requests = %d, want >= 8", got)
	}
	for i := 12; i < 24; i++ {
		key := uint64(i - 11)
		want := StatusOK
		if key > 6 {
			want = StatusMiss
		}
		if resps[i].Status != want {
			t.Fatalf("trailing GET %d status %d, want %d", key, resps[i].Status, want)
		}
		if want == StatusOK && resps[i].Value != key*10 {
			t.Fatalf("trailing GET %d value %d", key, resps[i].Value)
		}
	}

	// Drain so the connection's histogram is added into the server's
	// base, then check the exact batch decomposition.
	s.Shutdown()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	hb := batchHistOf(s)
	if hb.Sum != 23 || hb.Count != 4 {
		t.Fatalf("batch histogram sum/count = %d/%d, want 23/4", hb.Sum, hb.Count)
	}
	// Batch sizes 8,3,4,8 land in bit-length buckets 4,2,3,4.
	wantBuckets := map[int]uint64{2: 1, 3: 1, 4: 2}
	for i := 0; i < metrics.NumBuckets; i++ {
		if got := hb.Buckets[i]; got != wantBuckets[i] {
			t.Errorf("batch bucket %d = %d, want %d", i, got, wantBuckets[i])
		}
	}
}

// TestClientSentListBounded keeps a sliding window of 64 requests in
// flight that never drains, and requires the client's list of unanswered
// ops to stay at the requests in flight rather than grow by one per
// request.
func TestClientSentListBounded(t *testing.T) {
	_, _, addr := newTestServer(t, Config{}, core.Config{Partitions: 2, KeyMax: 1 << 12})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	const window, inFlight, total = 16, 64, 1 << 14
	reqs := make([]Request, window)
	for i := range reqs {
		reqs[i] = Request{Op: OpGet, Key: uint64(i) + 1}
	}
	for sent := 0; sent < total; sent += window {
		if cl.Pending() == inFlight {
			for range window {
				if _, err := cl.Recv(); err != nil {
					t.Fatalf("recv: %v", err)
				}
			}
		}
		if err := cl.Send(reqs...); err != nil {
			t.Fatalf("send: %v", err)
		}
		if len(cl.sent) > inFlight {
			t.Fatalf("after %d requests, %d in flight, the sent list holds %d ops", sent+window, cl.Pending(), len(cl.sent))
		}
	}
	for cl.Pending() > 0 {
		if _, err := cl.Recv(); err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
}

// batchHistOf reads the server/batch histogram through ExportMetrics,
// the way the management plane does.
func batchHistOf(s *Server) metrics.HistSnapshot {
	_, hists := s.ExportMetrics()
	return hists[0]
}

// pipeServer serves one net.Pipe connection: the whole burst a Pipeline
// call writes crosses in one write, so the server coalesces it purely by
// window size and batch boundaries. stop shuts the server down, which
// adds the connection's batch histogram into the server's base.
func pipeServer(t *testing.T, cfg Config, h *core.Hybrid) (cl *Client, s *Server, stop func()) {
	t.Helper()
	s = New(h, cfg)
	sc, cc := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(newOneConnListener(sc)) }()
	cl = NewClient(cc)
	return cl, s, func() {
		cl.Close()
		s.Shutdown()
		if err := <-serveDone; err != nil {
			t.Fatalf("Serve: %v", err)
		}
	}
}

// TestServerScanPipelineOrder pins pipeline order for a SCAN that runs
// in a window with writes: a PUT pipelined before a SCAN from partition 0
// that continues into partition 1 is visible to it, a PUT into partition
// 1 pipelined after it is not, and a GET after both sees the second PUT.
func TestServerScanPipelineOrder(t *testing.T) {
	h := core.New(core.Config{Partitions: 2, KeyMax: 1 << 12})
	defer h.Close()
	const span = 1 << 11
	h.Build([]core.KV{{Key: span - 2, Value: 1}, {Key: span - 1, Value: 2}})
	cl, s, stop := pipeServer(t, Config{Window: 16}, h)
	resps, err := cl.Pipeline([]Request{
		{Op: OpPut, Key: span + 1, Value: 3},
		{Op: OpScan, Key: span - 2, Value: 10},
		{Op: OpPut, Key: span + 2, Value: 4},
		{Op: OpGet, Key: span + 2},
	})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if resps[0].Status != StatusOK || resps[2].Status != StatusOK || resps[3].Status != StatusOK || resps[3].Value != 4 {
		t.Fatalf("PUT, PUT, GET -> %+v, %+v, %+v", resps[0], resps[2], resps[3])
	}
	if want := []Pair{{Key: span - 2, Value: 1}, {Key: span - 1, Value: 2}, {Key: span + 1, Value: 3}}; resps[1].Status != StatusOK || !slices.Equal(resps[1].Pairs, want) {
		t.Fatalf("SCAN -> status %d, pairs %v; want OK, %v", resps[1].Status, resps[1].Pairs, want)
	}
	stop()
	if hb := batchHistOf(s); hb.Count != 1 || hb.Sum != 4 {
		t.Errorf("batch histogram sum/count = %d/%d, want 4/1: the SCAN shares the writes' window", hb.Sum, hb.Count)
	}
}

// TestServerScanWindowPairCap pipelines a window of 16 SCANs at the scan
// limit. A window's summed scan limits stay within flushBytes/16 pairs —
// the staged-output bound, flushBytes of pairs — so at a limit of 1024
// the 16 scans run as 4 windows of 4; a limit above the cap still admits
// one scan per window. Every response carries its full limit of pairs.
func TestServerScanWindowPairCap(t *testing.T) {
	h := core.New(core.Config{Partitions: 4, KeyMax: 1 << 16})
	defer h.Close()
	pairs := make([]core.KV, 1<<14)
	for i := range pairs {
		pairs[i] = core.KV{Key: uint64(i) + 1, Value: uint64(i)}
	}
	h.Build(pairs)
	for _, tc := range []struct{ limit, batches, size int }{
		{1024, 4, 4},
		{flushBytes / 16, 16, 1},
		{2 * flushBytes / 16, 16, 1},
	} {
		cl, s, stop := pipeServer(t, Config{Window: 16, ScanLimit: tc.limit}, h)
		reqs := make([]Request, 16)
		for i := range reqs {
			reqs[i] = Request{Op: OpScan, Key: uint64(i)*64 + 1, Value: uint64(tc.limit)}
		}
		resps, err := cl.Pipeline(reqs)
		if err != nil {
			t.Fatalf("limit %d: pipeline: %v", tc.limit, err)
		}
		for i, r := range resps {
			if r.Status != StatusOK || len(r.Pairs) != tc.limit || r.Pairs[0].Key != reqs[i].Key {
				t.Fatalf("limit %d: scan %d -> status %d, %d pairs", tc.limit, i, r.Status, len(r.Pairs))
			}
			PutPairs(r.Pairs)
		}
		stop()
		hb := batchHistOf(s)
		if hb.Count != uint64(tc.batches) || hb.Sum != 16 || hb.Buckets[bits.Len(uint(tc.size))] != uint64(tc.batches) {
			t.Errorf("limit %d: %d windows summing to %d, want %d windows of %d", tc.limit, hb.Count, hb.Sum, tc.batches, tc.size)
		}
	}
}

// TestServerRoundPerFlush writes 64 pipelined GETs in one socket write
// and counts the Batcher.Apply calls that serve them: one at the default
// window, whose round is the whole flush, and four at a window of 16.
func TestServerRoundPerFlush(t *testing.T) {
	h := core.New(core.Config{Partitions: 4, KeyMax: 1 << 16})
	defer h.Close()
	const n = 64
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Op: OpGet, Key: uint64(i)*1000 + 1}
	}
	for _, tc := range []struct{ window, applies int }{{0, 1}, {16, 4}} {
		cl, s, stop := pipeServer(t, Config{Window: tc.window}, h)
		// Send only buffers; the first Recv writes all 64 frames at once.
		if err := cl.Send(reqs...); err != nil {
			t.Fatalf("window %d: send: %v", tc.window, err)
		}
		for range reqs {
			if resp, err := cl.Recv(); err != nil || resp.Status != StatusMiss {
				t.Fatalf("window %d: GET -> %+v, %v; want a miss", tc.window, resp, err)
			}
		}
		stop()
		if hb := batchHistOf(s); hb.Count != uint64(tc.applies) || hb.Sum != n {
			t.Errorf("window %d: %d Batcher.Apply calls serving %d requests, want %d serving %d", tc.window, hb.Count, hb.Sum, tc.applies, n)
		}
	}
}

// TestServerBadFrameMidBatch writes two requests, a frame with a bad
// length word and one more request in one write: the server answers the
// two and then closes the connection without serving the fourth.
func TestServerBadFrameMidBatch(t *testing.T) {
	h := core.New(core.Config{Partitions: 4, KeyMax: 1 << 16})
	defer h.Close()
	cl, _, stop := pipeServer(t, Config{}, h)
	defer stop()
	buf := AppendRequest(nil, Request{Op: OpPut, Key: 7, Value: 70})
	buf = AppendRequest(buf, Request{Op: OpGet, Key: 7})
	buf = binary.BigEndian.AppendUint32(buf, reqBody-1)
	buf = append(buf, make([]byte, reqBody)...)
	buf = AppendRequest(buf, Request{Op: OpPut, Key: 8, Value: 80})
	if _, err := cl.nc.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, want := range []Response{{Status: StatusOK}, {Status: StatusOK, Value: 70}} {
		if resp, err := readResponse(cl.br, OpGet); err != nil || resp.Status != want.Status || resp.Value != want.Value {
			t.Fatalf("response %+v, %v; want %+v", resp, err, want)
		}
	}
	if _, err := readResponse(cl.br, OpGet); err != io.EOF {
		t.Fatalf("after the intact prefix: %v, want EOF (connection closed)", err)
	}
	if v, ok := h.Get(8); ok {
		t.Errorf("the request after the bad frame was served: key 8 holds %d", v)
	}
}
