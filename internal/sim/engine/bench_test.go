package engine

import (
	"fmt"
	"testing"
)

// BenchmarkEngineDispatch measures dispatch under contention: eight actors
// with mutually prime step sizes, so nearly every Advance re-sorts into the
// heap and the parking actor dispatches another. Reports the dispatch rate
// (events/s), the cost per dispatched event (ns/event) and the coroutine
// switches per dispatched event (switches/event).
func BenchmarkEngineDispatch(b *testing.B) { benchDispatch(b, false) }

// BenchmarkEngineDispatchRunAhead is BenchmarkEngineDispatch with each
// actor's Advances run four at a time in a run-ahead section, as an NMP
// core runs an offloaded request: the same events, most of them parks
// replayed in dispatch with no switch.
func BenchmarkEngineDispatchRunAhead(b *testing.B) { benchDispatch(b, true) }

func benchDispatch(b *testing.B, ahead bool) {
	const actors, chain = 8, 4
	e := New()
	per := b.N/actors + 1
	for i := 0; i < actors; i++ {
		step := uint64(2*i + 1)
		e.Spawn(fmt.Sprintf("a%d", i), false, func(a *Actor) {
			for j := 0; j < per; j++ {
				if ahead && j%chain == 0 {
					a.BeginRunAhead()
				}
				a.Advance(step)
				if ahead && (j%chain == chain-1 || j == per-1) {
					a.EndRunAhead()
				}
			}
		})
	}
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	events := float64(e.stDispatches.Value())
	sec := b.Elapsed().Seconds()
	if events > 0 && sec > 0 {
		b.ReportMetric(events/sec, "events/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
		b.ReportMetric(float64(e.switches)/events, "switches/event")
	}
}

// BenchmarkEngineAdvanceFastPath measures the uncontended case: a single
// runnable actor advancing with an empty heap, which the inlined Advance
// fast path must keep channel-free.
func BenchmarkEngineAdvanceFastPath(b *testing.B) {
	e := New()
	e.Spawn("solo", false, func(a *Actor) {
		for i := 0; i < b.N; i++ {
			a.Advance(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineBlockUnblock measures the doorbell round trip the
// flat-combining layer leans on: a client that blocks awaiting service and
// a server that wakes it, alternating.
func BenchmarkEngineBlockUnblock(b *testing.B) {
	e := New()
	var client *Actor
	client = e.Spawn("client", false, func(a *Actor) {
		for i := 0; i < b.N; i++ {
			a.Block()
		}
	})
	e.Spawn("server", false, func(a *Actor) {
		for i := 0; i < b.N; i++ {
			a.Advance(1)
			a.Unblock(client, 1)
		}
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	events := float64(e.stDispatches.Value())
	sec := b.Elapsed().Seconds()
	if events > 0 && sec > 0 {
		b.ReportMetric(events/sec, "events/s")
		b.ReportMetric(float64(e.switches)/events, "switches/event")
	}
}
