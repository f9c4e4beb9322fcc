package server

import (
	"net"
	"testing"

	"hybrids/internal/core"
)

// TestServePathAllocs pins the data plane's zero-allocation contract: a
// steady-state pipelined scalar operation performs no heap allocation
// anywhere on the path — client encode, the server's connection loop
// (frame decode, coalescing, batcher window, combiner, response encode,
// socket write) and client decode. testing.AllocsPerRun
// counts mallocs process-wide, so the server's goroutines are inside the
// measurement, not just the client's.
func TestServePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	h := core.New(core.Config{Partitions: 4, KeyMax: 1 << 16})
	defer h.Close()
	s := New(h, Config{Window: 16})
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

	const resident = 128
	for k := uint64(1); k <= resident; k++ {
		if ok, err := cl.Put(k, k*3); err != nil || !ok {
			t.Fatalf("preload Put(%d) = %v, %v", k, ok, err)
		}
	}

	const depth = 16
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
	// Warm every pool and scratch buffer on both sides (future pools,
	// batcher index lists, coalescing slices, output buffer, client scratch).
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("pipelined scalar round allocated %v times, want 0", avg)
	}
}
