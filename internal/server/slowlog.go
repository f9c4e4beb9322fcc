package server

import (
	"fmt"
	"time"
)

// logSlowOp emits one structured slow-op log line for a served batch
// whose wall-clock time crossed the connection's SlowOp threshold. The
// line is a single JSON object carrying the batch's two measured parts:
//
//	{"t":"slow_op","ts":"<RFC3339Nano>","conn":"<remote>","ops":N,
//	 "total_ns":T,"core_wait_ns":W,"self_ns":S}
//
// core_wait_ns is the time spent blocked in the core runtime (batcher
// windows and scan barriers), self_ns the rest (decode, encode, and a
// write of staged responses if the batch crossed the staging cap), and
// W+S = T exactly. This runs on the connection's goroutine but only for
// batches that already blew the threshold, so its allocation and the log
// mutex are off the steady-state path.
func (s *Server) logSlowOp(c *conn, ops int, t *serveTallies, total time.Duration) {
	w := s.cfg.SlowOpLog
	if w == nil {
		return
	}
	wait := min(t.coreWait, total)
	line := fmt.Appendf(make([]byte, 0, 192),
		`{"t":"slow_op","ts":%q,"conn":%q,"ops":%d,"total_ns":%d,"core_wait_ns":%d,"self_ns":%d}`+"\n",
		time.Now().Format(time.RFC3339Nano), c.remote, ops, total.Nanoseconds(),
		wait.Nanoseconds(), (total - wait).Nanoseconds())
	s.logMu.Lock()
	w.Write(line)
	s.logMu.Unlock()
}
