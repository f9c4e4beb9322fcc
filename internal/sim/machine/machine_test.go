package machine

import (
	"maps"
	"testing"

	"hybrids/internal/metrics"
	"hybrids/internal/sim/memsys"
)

func testConfig() Config {
	cfg := Default()
	cfg.Mem.HostMemSize = 16 << 20
	cfg.Mem.NMPMemSize = 16 << 20
	cfg.Mem.L2Size = 64 << 10
	cfg.Mem.L1Size = 8 << 10
	cfg.Mem.TLBEntries = 0 // exact-latency tests assume perfect translation
	return cfg
}

func TestHostReadWriteAdvancesTime(t *testing.T) {
	m := New(testConfig())
	a := m.Mem.HostAlloc.Alloc(64, 64)
	var coldLat, warmLat uint64
	m.SpawnHost(0, "t", func(c *Ctx) {
		t0 := c.Now()
		c.Write32(a, 77)
		coldLat = c.Now() - t0
		t0 = c.Now()
		if got := c.Read32(a); got != 77 {
			t.Errorf("Read32 = %d", got)
		}
		warmLat = c.Now() - t0
	})
	m.Run()
	if coldLat == 0 || warmLat == 0 {
		t.Fatalf("accesses consumed no time: cold=%d warm=%d", coldLat, warmLat)
	}
	if warmLat >= coldLat {
		t.Fatalf("warm (%d) not faster than cold (%d)", warmLat, coldLat)
	}
}

func TestCASRacesLinearizeInVirtualTime(t *testing.T) {
	// Two host threads CAS the same word from 0; exactly one must win,
	// and the loser must observe the winner's value.
	m := New(testConfig())
	a := m.Mem.HostAlloc.Alloc(8, 8)
	wins := 0
	for core := 0; core < 2; core++ {
		core := core
		m.SpawnHost(core, "racer", func(c *Ctx) {
			if c.CAS32(a, 0, uint32(core)+1) {
				wins++
			}
		})
	}
	m.Run()
	if wins != 1 {
		t.Fatalf("CAS winners = %d, want exactly 1", wins)
	}
}

func TestAtomicAdd(t *testing.T) {
	m := New(testConfig())
	a := m.Mem.HostAlloc.Alloc(8, 8)
	const perThread = 50
	for core := 0; core < 4; core++ {
		m.SpawnHost(core, "adder", func(c *Ctx) {
			for i := 0; i < perThread; i++ {
				c.AtomicAdd32(a, 1)
			}
		})
	}
	m.Run()
	if got := m.Mem.RAM.Load32(a); got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
}

func TestNMPCoreServesUntilStopping(t *testing.T) {
	m := New(testConfig())
	flag := m.Mem.ScratchAddr(0) // one word in NMP 0's scratchpad
	served := false
	m.SpawnNMP(0, func(c *Ctx) {
		for !c.A.Stopping() {
			if c.Read32(flag) == 1 {
				c.Write32(flag, 2)
				served = true
			}
			c.Step(4)
		}
	})
	m.SpawnHost(0, "client", func(c *Ctx) {
		c.Write32(flag, 1) // MMIO publish
		for c.Read32(flag) != 2 {
			c.Step(8)
		}
		c.OpDone()
	})
	cycles := m.Run()
	if !served {
		t.Fatal("NMP core never served the request")
	}
	if cycles == 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestNMPAtomicsPanic(t *testing.T) {
	m := New(testConfig())
	a := m.Mem.NMPAlloc[0].Alloc(8, 8)
	var recovered bool
	m.SpawnNMP(0, func(c *Ctx) {
		defer func() { recovered = recover() != nil }()
		c.CAS32(a, 0, 1)
	})
	m.SpawnHost(0, "noop", func(c *Ctx) { c.Step(1) })
	m.Run()
	if !recovered {
		t.Fatal("NMP atomic did not panic")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, metrics.Snapshot) {
		m := New(testConfig())
		addrs := make([]memsys.Addr, 64)
		for i := range addrs {
			addrs[i] = m.Mem.HostAlloc.Alloc(64, 64)
		}
		for core := 0; core < 4; core++ {
			core := core
			m.SpawnHost(core, "w", func(c *Ctx) {
				for i := 0; i < 200; i++ {
					a := addrs[(i*7+core*13)%len(addrs)]
					if i%3 == 0 {
						c.Write32(a, uint32(i))
					} else {
						c.Read32(a)
					}
				}
			})
		}
		cycles := m.Run()
		return cycles, m.Metrics.Snapshot()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || !maps.Equal(s1, s2) {
		t.Fatalf("non-deterministic: %d/%d %v %v", c1, c2, s1, s2)
	}
}

func TestStepCosts(t *testing.T) {
	m := New(testConfig())
	var hostT, nmpT uint64
	m.SpawnHost(0, "h", func(c *Ctx) {
		t0 := c.Now()
		c.Step(10)
		hostT = c.Now() - t0
	})
	m.SpawnNMP(0, func(c *Ctx) {
		t0 := c.Now()
		c.Step(10)
		nmpT = c.Now() - t0
	})
	m.Run()
	if hostT != 10 || nmpT != 10 {
		t.Fatalf("step costs host=%d nmp=%d", hostT, nmpT)
	}
}

func TestMMIOBurstLatencyAndData(t *testing.T) {
	m := New(testConfig())
	sp := m.Mem.ScratchAddr(0)
	var wLat, rLat uint64
	m.SpawnHost(0, "h", func(c *Ctx) {
		t0 := c.Now()
		c.MMIOWriteBurst(sp, []uint32{1, 2, 3, 4})
		wLat = c.Now() - t0
		t0 = c.Now()
		var got [4]uint32
		c.MMIOReadBurst(sp, got[:])
		rLat = c.Now() - t0
		for i, v := range got {
			if v != uint32(i+1) {
				t.Errorf("burst word %d = %d", i, v)
			}
		}
	})
	m.Run()
	cfg := m.Cfg.Mem
	if wLat != cfg.MMIOWriteLatency+3*memsys.MMIOWordExtra {
		t.Fatalf("write burst latency = %d", wLat)
	}
	if rLat != cfg.MMIOReadLatency+3*memsys.MMIOWordExtra {
		t.Fatalf("read burst latency = %d", rLat)
	}
}

func TestMMIOBurstFromNMPPanics(t *testing.T) {
	m := New(testConfig())
	var recovered bool
	m.SpawnNMP(0, func(c *Ctx) {
		defer func() { recovered = recover() != nil }()
		c.MMIOWriteBurst(m.Mem.ScratchAddr(0), []uint32{1})
	})
	m.SpawnHost(0, "noop", func(c *Ctx) { c.Step(1) })
	m.Run()
	if !recovered {
		t.Fatal("NMP MMIO burst did not panic")
	}
}

func TestBlockUnblockThroughCtx(t *testing.T) {
	m := New(testConfig())
	var wokeAt uint64
	waiter := m.SpawnHost(0, "waiter", func(c *Ctx) {
		c.A.Block()
		wokeAt = c.Now()
	})
	m.SpawnHost(1, "waker", func(c *Ctx) {
		c.Step(500)
		c.A.Unblock(waiter, 10)
	})
	m.Run()
	if wokeAt != 510 {
		t.Fatalf("woke at %d, want 510", wokeAt)
	}
}
