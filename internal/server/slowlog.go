package server

import (
	"fmt"
	"time"

	"hybrids/internal/sim/trace"
)

// logSlowOp emits one structured slow-op log line for a served batch
// whose wall-clock time crossed the connection's SlowOp threshold. The
// line is a single JSON object carrying the same six attribution bucket
// names the simulator's attr/* machinery uses (trace.Bucket), so a
// production slow-op record and a simulated per-op attribution sample
// decompose latency in the same vocabulary:
//
//	{"t":"slow_op","ts":"<RFC3339Nano>","conn":"<remote>","ops":N,
//	 "total_ns":T,"attr":{"host_cache":0,"coherence":0,"dram":0,
//	 "offload_wait":W,"nmp_serial":0,"host_compute":H}}
//
// Natively only the offload boundary is observable: offload_wait is the
// time spent blocked on the core runtime (batcher windows and scan
// barriers), host_compute is the residual (decode, encode, and a write
// of staged responses if the batch crossed the staging cap), and the
// cache/coherence/DRAM/serialization buckets — which need the
// simulator's cycle-level instrumentation — report 0. This runs on the
// connection's goroutine but only for batches that already blew the
// threshold, so its allocations and the log mutex are off the
// steady-state path.
func (s *Server) logSlowOp(c *conn, ops int, t *serveTallies, total time.Duration) {
	w := s.cfg.SlowOpLog
	if w == nil {
		return
	}
	offload := t.offloadNanos
	if offload > total {
		offload = total
	}
	buckets := [trace.NumBuckets]uint64{
		trace.BucketOffloadWait: uint64(offload.Nanoseconds()),
		trace.BucketHostCompute: uint64((total - offload).Nanoseconds()),
	}
	line := make([]byte, 0, 256)
	line = fmt.Appendf(line, `{"t":"slow_op","ts":%q,"conn":%q,"ops":%d,"total_ns":%d,"attr":{`,
		time.Now().Format(time.RFC3339Nano), c.remote, ops, total.Nanoseconds())
	for b := trace.Bucket(0); b < trace.NumBuckets; b++ {
		if b > 0 {
			line = append(line, ',')
		}
		line = fmt.Appendf(line, "%q:%d", b.String(), buckets[b])
	}
	line = append(line, "}}\n"...)
	s.logMu.Lock()
	w.Write(line)
	s.logMu.Unlock()
}
