package main

import (
	"fmt"
	"time"

	"hybrids/internal/hds"
	"hybrids/internal/server"
)

// Load-generator geometry. A client with a single 16-request window in
// flight leaves the server idle between windows (the prototype that sized
// this benchmark read 519-612 kops/s over six runs that way, 840-923 with
// four windows); four sliding windows keep the connection saturated. The window matches server.Config's default
// coalescing window, so one client window is one server batch.
const (
	windowOps       = 16
	windowsInFlight = 4
	maxInFlight     = windowOps * windowsInFlight
)

// opCode maps an hds kind to its protocol operation.
func opCode(k hds.Kind) uint8 {
	switch k {
	case hds.Read:
		return server.OpGet
	case hds.Update:
		return server.OpUpdate
	case hds.Insert:
		return server.OpPut
	case hds.Remove:
		return server.OpDelete
	}
	return server.OpScan
}

// result is one operation's outcome in the form the oracle checks,
// whichever path produced it.
type result struct {
	ok       bool // applied and succeeded (StatusOK)
	rejected bool // refused: StatusRejected or StatusBadRequest
	value    uint64
	pairs    []server.Pair // SCAN payload
}

func fromResponse(r server.Response) result {
	return result{
		ok:       r.Status == server.StatusOK,
		rejected: r.Status != server.StatusOK && r.Status != server.StatusMiss,
		value:    r.Value,
		pairs:    r.Pairs,
	}
}

// slidingClient drives one connection closed-loop with up to
// windowsInFlight windows of windowOps requests in flight: receive a
// window, send the next.
type slidingClient struct {
	c       *server.Client
	scratch [windowOps]server.Request
	// peak is the largest number of requests ever in flight (tests assert
	// it never exceeds maxInFlight).
	peak int
}

// run sends ops in order and hands every response to check with its op's
// index. It returns a transport or protocol error; a response lost or
// duplicated surfaces as one, because server.Client decodes responses by
// the FIFO of sent ops. The traced run passes obs to record each window's
// send and receive; with obs nil no timestamp is taken.
func (s *slidingClient) run(ops []hds.Request, check func(i int, r result), obs *callerTrace) error {
	sent, recvd := 0, 0
	send := func() error {
		n := min(windowOps, len(ops)-sent)
		for i := 0; i < n; i++ {
			op := ops[sent+i]
			s.scratch[i] = server.Request{Op: opCode(op.Kind), Key: op.Key, Value: op.Value}
		}
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		if err := s.c.Send(s.scratch[:n]...); err != nil {
			return fmt.Errorf("send ops %d..%d: %w", sent, sent+n, err)
		}
		if obs != nil {
			obs.sent(sent/windowOps, t0, time.Now())
		}
		sent += n
		s.peak = max(s.peak, sent-recvd)
		return nil
	}
	for sent < len(ops) && sent-recvd+windowOps <= maxInFlight {
		if err := send(); err != nil {
			return err
		}
	}
	for recvd < len(ops) {
		n := min(windowOps, sent-recvd)
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		for i := 0; i < n; i++ {
			resp, err := s.c.Recv()
			if err != nil {
				return fmt.Errorf("recv op %d: %w", recvd+i, err)
			}
			check(recvd+i, fromResponse(resp))
			if resp.Pairs != nil {
				server.PutPairs(resp.Pairs)
			}
		}
		if obs != nil {
			obs.received(recvd/windowOps, t0, time.Now())
		}
		recvd += n
		if sent < len(ops) {
			if err := send(); err != nil {
				return err
			}
		}
	}
	if p := s.c.Pending(); p != 0 {
		return fmt.Errorf("%d responses still owed after the last op", p)
	}
	return nil
}

// one issues a single request and waits for its response: the unloaded
// discipline, one operation in flight.
func (s *slidingClient) one(op hds.Request) (result, error) {
	s.scratch[0] = server.Request{Op: opCode(op.Kind), Key: op.Key, Value: op.Value}
	if err := s.c.Send(s.scratch[:1]...); err != nil {
		return result{}, err
	}
	resp, err := s.c.Recv()
	if err != nil {
		return result{}, err
	}
	r := fromResponse(resp)
	if resp.Pairs != nil {
		server.PutPairs(resp.Pairs)
		r.pairs = nil
	}
	return r, nil
}
