package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"hybrids/internal/core"
)

// syncBuffer lets the test read the slow-op stream while the reader
// goroutines write it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// slowOpLine mirrors the documented slow-op record schema.
type slowOpLine struct {
	T          string    `json:"t"`
	TS         time.Time `json:"ts"`
	Conn       string    `json:"conn"`
	Ops        int       `json:"ops"`
	TotalNS    int64     `json:"total_ns"`
	CoreWaitNS int64     `json:"core_wait_ns"`
	SelfNS     int64     `json:"self_ns"`
}

// TestSlowOpLog drives traffic with a 1ns threshold (every batch is
// slow) and checks each emitted line parses as the documented JSON
// schema, with no field beyond it: type tag, RFC3339 timestamp, remote
// address, op count, total, and the core-wait and self times, which sum
// to the total.
func TestSlowOpLog(t *testing.T) {
	var log syncBuffer
	s, _, addr := newTestServer(t,
		Config{Window: 4, SlowOp: time.Nanosecond, SlowOpLog: &log},
		core.Config{Partitions: 2, KeyMax: 1 << 12})

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for i := uint64(1); i <= 64; i++ {
		if _, err := c.Put(i, i); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	c.Close()
	s.Shutdown()

	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(log.Bytes()))
	for sc.Scan() {
		lines++
		var rec slowOpLine
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("line %d: %v\n%s", lines, err, sc.Bytes())
		}
		if rec.T != "slow_op" || rec.Conn == "" || rec.Ops <= 0 || rec.TotalNS <= 0 || rec.TS.IsZero() {
			t.Fatalf("line %d: bad record %+v", lines, rec)
		}
		if rec.CoreWaitNS < 0 || rec.SelfNS < 0 || rec.CoreWaitNS+rec.SelfNS != rec.TotalNS {
			t.Fatalf("line %d: core_wait_ns %d + self_ns %d != total_ns %d", lines, rec.CoreWaitNS, rec.SelfNS, rec.TotalNS)
		}
	}
	if lines == 0 {
		t.Fatalf("no slow-op lines emitted at a 1ns threshold")
	}
	if got := statValue(t, s.StatsText(), "server/slow_ops"); got != uint64(lines) {
		t.Fatalf("server/slow_ops = %d, %d lines logged", got, lines)
	}
}
