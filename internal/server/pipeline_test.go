package server

import (
	"net"
	"testing"

	"hybrids/internal/core"
	"hybrids/internal/metrics"
)

// TestServerMixedPipelineBatches drives a pipelined burst whose SCAN and
// STATS requests split the coalescing windows mid-pipeline, and checks
// every response in order plus the exact batch-size histogram the splits
// must produce. net.Pipe makes the coalescing deterministic: the whole
// burst crosses in one write, so the server's reader sees it buffered
// and slices it purely by window size and batch boundaries.
func TestServerMixedPipelineBatches(t *testing.T) {
	reg := metrics.NewRegistry()
	h := core.New(core.Config{Partitions: 4, KeyMax: 1 << 16})
	defer h.Close()
	s := New(h, Config{Window: 8, Metrics: reg})
	sc, cc := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(newOneConnListener(sc)) }()
	cl := NewClient(cc)
	defer cl.Close()

	// 24 requests, window 8. The reader coalesces three windows of 8;
	// the SCAN (request 7) and STATS (request 12) are batch boundaries:
	//   window 1: PUT x6 | SCAN | GET      -> scalar batches 6, 1
	//   window 2: GET x3 | STATS | GET x4  -> scalar batches 3, 4
	//   window 3: GET x8                   -> scalar batch  8
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

	// Drain so the connection folds its histogram into the registry,
	// then check the exact batch decomposition.
	s.Shutdown()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	hb := reg.Histogram("server/batch")
	if hb.Sum() != 22 || hb.Count() != 5 {
		t.Fatalf("batch histogram sum/count = %d/%d, want 22/5", hb.Sum(), hb.Count())
	}
	// Batch sizes 6,1,3,4,8 land in bit-length buckets 3,1,2,3,4.
	wantBuckets := map[int]uint64{1: 1, 2: 1, 3: 2, 4: 1}
	for i := 0; i < metrics.NumBuckets; i++ {
		if got := hb.Bucket(i); got != wantBuckets[i] {
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
