package machine

import (
	"bytes"
	"encoding/json"
	"testing"

	"hybrids/internal/sim/memsys"
	"hybrids/internal/sim/trace"
)

// TestAttributionBucketsSumToMeasuredCycles runs one known operation — a
// compute burst, a stride of cold reads, a store — and checks the
// attribution invariant end to end: the flushed sample's buckets sum
// exactly to the operation's measured virtual cycles, and the cycles land
// in the buckets the scenario predicts.
func TestAttributionBucketsSumToMeasuredCycles(t *testing.T) {
	m := New(testConfig())
	m.EnableAttribution()
	a := m.Mem.HostAlloc.Alloc(1024, 64)
	var opStart, opEnd uint64
	m.SpawnHost(0, "t", func(c *Ctx) {
		// Prefix outside the measured interval: AttrReset must keep these
		// cycles out of the sample.
		c.Read32(a)
		c.Step(3)
		c.AttrReset()

		opStart = c.Now()
		c.Step(5)
		for i := 1; i < 8; i++ { // cold blocks: LLC misses to DRAM
			c.Read32(a + memsys.Addr(i*64))
		}
		c.Read32(a) // warmed by the prefix: on-chip hit
		c.Write32(a, 1)
		opEnd = c.Now()
		c.OpDone()
	})
	m.Run()

	snap := m.Metrics.Snapshot()
	if n := snap.Get(trace.AttrTotalMetric + "/count"); n != 1 {
		t.Fatalf("attributed samples = %d, want 1", n)
	}
	total := snap.Get(trace.AttrTotalMetric + "/sum")
	if want := opEnd - opStart; total != want {
		t.Fatalf("attributed total = %d, want measured interval %d", total, want)
	}
	var bucketSum uint64
	for b := trace.Bucket(0); b < trace.NumBuckets; b++ {
		bucketSum += snap.Get(b.MetricName() + "/sum")
	}
	if bucketSum != total {
		t.Fatalf("buckets sum to %d, want total %d", bucketSum, total)
	}
	if v := snap.Get(trace.BucketDRAM.MetricName() + "/sum"); v == 0 {
		t.Fatal("cold reads charged no DRAM cycles")
	}
	if v := snap.Get(trace.BucketHostCache.MetricName() + "/sum"); v == 0 {
		t.Fatal("on-chip hits charged no host-cache cycles")
	}
	if v := snap.Get(trace.BucketHostCompute.MetricName() + "/sum"); v < 5 {
		t.Fatalf("host compute = %d, want at least the 5 stepped cycles", v)
	}
}

// TestTracingRecordsHostEvents checks the machine-level trace plumbing: a
// host thread's memory accesses land as spans on its core track, which a
// Chrome capture names host/0, and OpDone marks completion at the correct
// virtual time.
func TestTracingRecordsHostEvents(t *testing.T) {
	m := New(testConfig())
	tr := m.EnableTracing(1 << 10)
	a := m.Mem.HostAlloc.Alloc(64, 64)
	var done uint64
	m.SpawnHost(0, "t", func(c *Ctx) {
		c.Read32(a) // cold: DRAM read span
		c.Read32(a) // warm: L1 hit span
		done = c.Now()
		c.OpDone()
	})
	m.Run()

	host := m.Mem.HostTrack(0)
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var capture struct {
		TraceEvents []struct {
			Ph, Name string
			Tid      int
			Args     map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &capture); err != nil {
		t.Fatal(err)
	}
	named := false
	for _, ev := range capture.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Tid == host {
			named = ev.Args["name"] == "host/0"
		}
	}
	if !named {
		t.Fatalf("track %d is not named host/0 in the capture", host)
	}
	evs := tr.Events(host)
	counts := map[trace.Kind]int{}
	for _, ev := range evs {
		counts[ev.Kind]++
	}
	if counts[trace.KindDRAMRead] == 0 {
		t.Errorf("no dram-read span for the cold access; events: %+v", evs)
	}
	if counts[trace.KindL1Hit] == 0 {
		t.Errorf("no l1-hit span for the warm access; events: %+v", evs)
	}
	if counts[trace.KindOpDone] != 1 {
		t.Fatalf("op-done instants = %d, want 1", counts[trace.KindOpDone])
	}
	last := evs[len(evs)-1]
	if last.Kind != trace.KindOpDone || last.TS != done {
		t.Errorf("last event = %+v, want op-done at %d", last, done)
	}
}
