package ycsb

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/prng"
)

// TestStreamsGolden pins the generator's output: an FNV-64a hash over every
// op of two successive Streams calls on one Generator (so fresh keys carry
// over between calls) at 1, 2, 3 and 8 threads, at GOMAXPROCS 1 and the
// default. The cases cover every core workload, the paper's 50-25-25 mix,
// PartitionTail inserts, and read-latest over every op kind (RMW halves,
// updates, removes and scans whose keys follow the fresh inserts).
func TestStreamsGolden(t *testing.T) {
	type gold struct {
		name string
		cfg  Config
		hash uint64
	}
	var cases []gold
	for i, w := range []string{"a", "b", "c", "d", "e", "f"} {
		cfg, _ := Workload(w, 4000, 1<<20, 41)
		cases = append(cases, gold{name: w, cfg: cfg, hash: []uint64{
			0x1466b47ac2f34945, 0x5825d20b979cd6ed, 0xe0774a74beb11a11,
			0x53242e52230cc390, 0x9b61e1d5b2862ca8, 0xe1171e85cef5b551}[i]})
	}
	tail := Mix(4000, 1<<20, 50, 25, 25, 43)
	tail.Inserts, tail.Partitions = PartitionTail, 8
	latest := Config{Records: 4000, KeyMax: 1 << 20, ReadPct: 20, UpdatePct: 20, InsertPct: 20,
		RemovePct: 10, ScanPct: 10, RMWPct: 20, Dist: Latest, Seed: 47}
	cases = append(cases,
		gold{"mix-50-25-25", Mix(4000, 1<<20, 50, 25, 25, 41), 0xd7cece5513917da0},
		gold{"partition-tail", tail, 0x483981020029bf75},
		gold{"latest-every-kind", latest, 0xa8c1e9e9a46a730c})
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			h := fnv.New64a()
			var b [9]byte
			for _, threads := range []int{1, 2, 3, 8} {
				g := New(c.cfg)
				for call := 0; call < 2; call++ {
					for _, s := range g.Streams(threads, 1500) {
						for _, op := range s {
							b[0] = byte(op.Kind)
							binary.LittleEndian.PutUint32(b[1:], op.Key)
							binary.LittleEndian.PutUint32(b[5:], op.Value)
							h.Write(b[:])
						}
					}
				}
			}
			if got := h.Sum64(); got != c.hash {
				t.Errorf("GOMAXPROCS %d, %s: streams hash %#x, want %#x", procs, c.name, got, c.hash)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestGeneratorsBuiltConcurrently draws from generators built on 8
// goroutines at once, each over a record count no other test uses, so
// every one adds a zeta sum to the shared cache (run it under -race).
func TestGeneratorsBuiltConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s := New(YCSBC(3001+i, 1<<20, uint64(i))).Streams(1, 10); len(s[0]) != 10 {
				t.Errorf("generator %d drew %d ops", i, len(s[0]))
			}
		}()
	}
	wg.Wait()
}

var streamsSink [][]kv.Op

// BenchmarkStreams times the benchmark's two largest generations: YCSB-C
// at embedded-read's size and YCSB-E at served-scan's, two callers each.
func BenchmarkStreams(b *testing.B) {
	for _, bc := range []struct {
		name string
		ops  int
	}{{"c", 900_000}, {"e", 1_125_000}} {
		cfg, _ := Workload(bc.name, 1<<20, 1<<26, 1)
		b.Run(bc.name, func(b *testing.B) {
			g := New(cfg)
			for range b.N {
				streamsSink = g.Streams(2, bc.ops)
			}
		})
	}
}

// TestLoadGolden pins Load's output, computed in parallel waves, as an
// FNV-64a hash of every record at GOMAXPROCS 1 and the default, over
// record counts that no worker count divides evenly. The hashes are those
// of the sequential fill.
func TestLoadGolden(t *testing.T) {
	cases := []struct {
		cfg  Config
		hash uint64
	}{
		{YCSBC(4000, 1<<20, 41), 0x69f85c398e6cf2e2},
		{YCSBC(100_003, 1<<24, 43), 0x98feb8b1b9383012},
		{Mix(1<<18+1, 1<<26, 50, 25, 25, 47), 0x70da0df19faeab16},
	}
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			h := fnv.New64a()
			var b [8]byte
			for _, p := range New(c.cfg).Load() {
				binary.LittleEndian.PutUint32(b[:], p.Key)
				binary.LittleEndian.PutUint32(b[4:], p.Value)
				h.Write(b[:])
			}
			if got := h.Sum64(); got != c.hash {
				t.Errorf("GOMAXPROCS %d, %d records: load hash %#x, want %#x", procs, c.cfg.Records, got, c.hash)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestZetaSumMatchesLoop checks the parallel zeta sum against the plain
// loop to the bit, at n around the block and wave boundaries. It empties
// the cache first, so each -cpu value computes the sums anew.
func TestZetaSumMatchesLoop(t *testing.T) {
	zetaMu.Lock()
	clear(zetaCache)
	zetaMu.Unlock()
	wave := uint64(runtime.GOMAXPROCS(0) * waveBlock)
	for _, theta := range []float64{0.5, 0.99} {
		for _, n := range []uint64{0, 1, waveBlock - 1, waveBlock, waveBlock + 1, wave, wave + 1, 3*wave + 7} {
			want := 0.0
			for i := uint64(0); i < n; i++ {
				want += 1 / math.Pow(float64(i+1), theta)
			}
			if got := zetaStatic(n, theta); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("zetaStatic(%d, %v) = %v, the loop gives %v", n, theta, got, want)
			}
		}
	}
}

var (
	zetaSink float64
	loadSink []Pair
)

// BenchmarkZeta times the zipfian constant of the native workloads'
// 2^20 records, uncached.
func BenchmarkZeta(b *testing.B) {
	for range b.N {
		zetaMu.Lock()
		clear(zetaCache)
		zetaMu.Unlock()
		zetaSink = zetaStatic(1<<20, 0.99)
	}
}

// BenchmarkLoad times the native workloads' load set: 2^20 records over
// a 2^26 key space.
func BenchmarkLoad(b *testing.B) {
	g := New(YCSBC(1<<20, 1<<26, 1))
	for range b.N {
		loadSink = g.Load()
	}
}

func TestLoadKeysUniqueAndBounded(t *testing.T) {
	g := New(YCSBC(10000, 1<<24, 1))
	load := g.Load()
	if len(load) != 10000 {
		t.Fatalf("load size = %d", len(load))
	}
	seen := map[uint32]bool{}
	for _, p := range load {
		if p.Key == 0 || p.Key >= 1<<24 {
			t.Fatalf("key %d out of bounds", p.Key)
		}
		if seen[p.Key] {
			t.Fatalf("duplicate key %d", p.Key)
		}
		seen[p.Key] = true
	}
}

func TestYCSBCIsReadOnly(t *testing.T) {
	g := New(YCSBC(1000, 1<<20, 2))
	for _, stream := range g.Streams(4, 500) {
		for _, op := range stream {
			if op.Kind != hds.Read {
				t.Fatalf("YCSB-C produced %s", op.Kind)
			}
		}
	}
}

func TestMixProportions(t *testing.T) {
	g := New(Mix(1000, 1<<20, 50, 25, 25, 3))
	counts := map[hds.Kind]int{}
	total := 0
	for _, stream := range g.Streams(8, 2000) {
		for _, op := range stream {
			counts[op.Kind]++
			total++
		}
	}
	check := func(kind hds.Kind, wantPct int) {
		got := 100 * counts[kind] / total
		if got < wantPct-3 || got > wantPct+3 {
			t.Errorf("%s = %d%%, want ~%d%%", kind, got, wantPct)
		}
	}
	check(hds.Read, 50)
	check(hds.Insert, 25)
	check(hds.Remove, 25)
}

func TestStreamsDeterministic(t *testing.T) {
	mk := func() [][]kv.Op {
		return New(Mix(500, 1<<20, 60, 20, 20, 7)).Streams(4, 300)
	}
	a, b := mk(), mk()
	for th := range a {
		for i := range a[th] {
			if a[th][i] != b[th][i] {
				t.Fatalf("stream %d op %d differs", th, i)
			}
		}
	}
}

func TestFreshInsertKeysUniqueAcrossThreads(t *testing.T) {
	g := New(Mix(1000, 1<<22, 0, 100, 0, 11))
	seen := map[uint32]bool{}
	for _, p := range g.Load() {
		seen[p.Key] = true
	}
	for _, stream := range g.Streams(8, 500) {
		for _, op := range stream {
			if op.Kind != hds.Insert {
				continue
			}
			if seen[op.Key] {
				t.Fatalf("insert key %d duplicates an earlier key", op.Key)
			}
			seen[op.Key] = true
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	z := newZipfian(100000, 0.99, prng.New(5))
	counts := map[uint64]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.next()
		if v >= 100000 {
			t.Fatalf("zipfian drew %d >= items", v)
		}
		counts[v]++
	}
	// Item 0 should be far hotter than the uniform expectation.
	if counts[0] < draws/1000 {
		t.Fatalf("hottest item drawn %d times; zipfian not skewed", counts[0])
	}
	// Top 1% of items should dominate the draws.
	top := 0
	for v, c := range counts {
		if v < 1000 {
			top += c
		}
	}
	if float64(top)/draws < 0.4 {
		t.Fatalf("top 1%% items got only %.1f%% of draws", 100*float64(top)/draws)
	}
}

func TestZipfianZetaMatchesDirectSum(t *testing.T) {
	n := uint64(1000)
	want := 0.0
	for i := uint64(1); i <= n; i++ {
		want += 1 / math.Pow(float64(i), 0.99)
	}
	if got := zetaStatic(n, 0.99); math.Abs(got-want) > 1e-9 {
		t.Fatalf("zeta = %v, want %v", got, want)
	}
}

func TestScrambledZipfianBalancesPartitions(t *testing.T) {
	// After scrambling, zipfian-hot keys should spread across partitions
	// (the property that keeps NMP partitions load-balanced).
	g := New(YCSBC(200000, 1<<24, 13))
	part := kv.RangePartitioner{KeyMax: 1 << 24, Parts: 8}
	counts := make([]int, 8)
	total := 0
	for _, stream := range g.Streams(2, 20000) {
		for _, op := range stream {
			counts[part.Part(op.Key)]++
			total++
		}
	}
	// Zipfian inherently concentrates some mass on single hot items (the
	// paper's footnote 4 acknowledges hot partitions); scrambling must
	// still keep every partition in play and none dominant.
	for p, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.03 || frac > 0.45 {
			t.Fatalf("partition %d gets %.1f%% of accesses; scrambling broken", p, 100*frac)
		}
	}
}

func TestPartitionTailInsertsHitPartitionTails(t *testing.T) {
	cfg := Mix(4000, 1<<24, 0, 100, 0, 17)
	cfg.Inserts = PartitionTail
	cfg.Partitions = 8
	g := New(cfg)
	part := kv.RangePartitioner{KeyMax: 1 << 24, Parts: 8}
	// Per-partition max over the load keys.
	maxKey := make([]uint32, 8)
	for _, p := range g.Load() {
		pp := part.Part(p.Key)
		if p.Key > maxKey[pp] {
			maxKey[pp] = p.Key
		}
	}
	perPart := make([]int, 8)
	last := make([]uint32, 8)
	for _, stream := range g.Streams(4, 200) {
		for _, op := range stream {
			p := part.Part(op.Key)
			if op.Key <= maxKey[p] {
				t.Fatalf("tail insert key %d not beyond partition %d max %d", op.Key, p, maxKey[p])
			}
			if last[p] != 0 && op.Key != last[p]+1 {
				t.Fatalf("partition %d tail keys not incrementing: %d after %d", p, op.Key, last[p])
			}
			last[p] = op.Key
			perPart[p]++
		}
	}
	for p, c := range perPart {
		if c != 100 {
			t.Fatalf("partition %d received %d tail inserts, want 100 (even spread)", p, c)
		}
	}
}

func TestBadMixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mix not summing to 100 did not panic")
		}
	}()
	New(Config{Records: 10, KeyMax: 1 << 20, ReadPct: 50})
}

func TestSmallKeySpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tiny key space did not panic")
		}
	}()
	New(YCSBC(1000, 1500, 1))
}

func TestKeyPermIsBijective(t *testing.T) {
	p := newKeyPerm(16, 0xfeed)
	seen := make([]bool, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		v := p.apply(i)
		if v >= 1<<16 {
			t.Fatalf("perm(%d) = %d outside domain", i, v)
		}
		if seen[v] {
			t.Fatalf("perm collision at %d", i)
		}
		seen[v] = true
	}
}

func TestKeyPermSeedChangesMapping(t *testing.T) {
	a := newKeyPerm(16, 1)
	b := newKeyPerm(16, 2)
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if a.apply(i) == b.apply(i) {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("different seeds agree on %d/1000 points", same)
	}
}

// TestZipfianBoundaryDrawStaysInRange is the regression test for the
// rank-overflow bug: with u close enough to 1 the inversion
// float64(items)*pow(eta*u-eta+1, alpha) rounds up to items — an
// out-of-range record index that maps to a key that was never loaded,
// silently inflating miss counts. fromU must clamp to items-1.
func TestZipfianBoundaryDrawStaysInRange(t *testing.T) {
	for _, items := range []uint64{10, 1000, 1 << 20} {
		z := newZipfian(items, 0.99, prng.New(1))
		for _, u := range []float64{1.0, math.Nextafter(1, 0), 0.9999999999999} {
			if v := z.fromU(u); v >= items {
				t.Fatalf("items=%d fromU(%v) = %d, out of range", items, u, v)
			}
		}
		// The clamp must not disturb interior draws.
		if v := z.fromU(0.5); v >= items {
			t.Fatalf("items=%d fromU(0.5) = %d, out of range", items, v)
		}
	}
}

// TestTailCursorsExhaustPartitions is the regression test for the
// tail-cursor start bug: a partition with no load keys used to start its
// cursor at lo and mint lo+1 first, silently skipping the valid key lo.
// Exhausting a tiny key space must mint every in-range key above the
// partition's load maximum exactly once — including lo for empty
// partitions — before panicking.
func TestTailCursorsExhaustPartitions(t *testing.T) {
	cfg := Mix(4, 256, 0, 100, 0, 3)
	cfg.Inserts = PartitionTail
	cfg.Partitions = 8
	g := New(cfg)
	part := kv.RangePartitioner{KeyMax: 256, Parts: 8}

	// Expected mintable set: for each partition, every key strictly above
	// max(load max, partition floor) up to hi-1, where the floor is lo-1
	// (or 0 for partition 0, whose key 0 is the reserved sentinel).
	maxInPart := make([]uint32, 8)
	for _, p := range g.Load() {
		pp := part.Part(p.Key)
		if p.Key > maxInPart[pp] {
			maxInPart[pp] = p.Key
		}
	}
	expect := map[uint32]bool{}
	sawEmpty := false
	for p := 0; p < 8; p++ {
		lo, hi := part.Range(p)
		start := maxInPart[p]
		if start == 0 {
			sawEmpty = true
			if lo > 0 {
				start = lo - 1
			}
		}
		for k := start + 1; k < hi; k++ {
			expect[k] = true
		}
	}
	if !sawEmpty {
		t.Fatal("test needs at least one empty partition to exercise the lo start")
	}

	tail := g.newTailCursors()
	minted := map[uint32]bool{}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("exhausted tails did not panic")
			}
		}()
		for {
			k := tail.next()
			if minted[k] {
				t.Fatalf("key %d minted twice", k)
			}
			if !expect[k] {
				t.Fatalf("minted key %d outside the valid headroom", k)
			}
			minted[k] = true
		}
	}()
	if len(minted) != len(expect) {
		t.Fatalf("minted %d keys before exhaustion, want %d (empty partitions must mint their lo key)",
			len(minted), len(expect))
	}
}

func TestWorkloadSuiteMixes(t *testing.T) {
	for _, w := range []string{"a", "b", "c", "d", "e", "f"} {
		cfg, err := Workload(w, 2000, 1<<20, 5)
		if err != nil {
			t.Fatalf("workload %s: %v", w, err)
		}
		g := New(cfg)
		counts := map[hds.Kind]int{}
		total := 0
		for _, stream := range g.Streams(4, 2000) {
			if len(stream) != 2000 {
				t.Fatalf("workload %s stream length %d", w, len(stream))
			}
			for _, op := range stream {
				counts[op.Kind]++
				total++
			}
		}
		frac := func(k hds.Kind) float64 { return float64(counts[k]) / float64(total) }
		switch w {
		case "a":
			if f := frac(hds.Update); f < 0.45 || f > 0.55 {
				t.Fatalf("A updates = %.2f", f)
			}
		case "b":
			if f := frac(hds.Update); f < 0.02 || f > 0.08 {
				t.Fatalf("B updates = %.2f", f)
			}
		case "c":
			if counts[hds.Read] != total {
				t.Fatalf("C not read-only: %v", counts)
			}
		case "d":
			if f := frac(hds.Insert); f < 0.02 || f > 0.08 {
				t.Fatalf("D inserts = %.2f", f)
			}
		case "e":
			if f := frac(hds.Scan); f < 0.90 || f > 0.99 {
				t.Fatalf("E scans = %.2f", f)
			}
		case "f":
			// Every RMW read is followed by an update of the same key, so
			// updates make up ~1/3 of physical ops (50 read + 25 rmw-pairs).
			if f := frac(hds.Update); f < 0.28 || f > 0.38 {
				t.Fatalf("F updates = %.2f", f)
			}
		}
	}
	if _, err := Workload("z", 1000, 1<<20, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWorkloadEScanLengthsBoundedAndSkewed(t *testing.T) {
	cfg, _ := Workload("e", 2000, 1<<20, 9)
	g := New(cfg)
	short, scans := 0, 0
	for _, stream := range g.Streams(2, 4000) {
		for _, op := range stream {
			if op.Kind != hds.Scan {
				continue
			}
			scans++
			if op.Value < 1 || op.Value > 100 {
				t.Fatalf("scan length %d outside [1, 100]", op.Value)
			}
			if op.Value <= 10 {
				short++
			}
		}
	}
	if scans == 0 {
		t.Fatal("no scans generated")
	}
	// Zipfian lengths skew short: the shortest tenth of the range should
	// dominate draws.
	if float64(short)/float64(scans) < 0.5 {
		t.Fatalf("short scans only %d/%d; lengths not zipfian-skewed", short, scans)
	}
}

func TestWorkloadFEmitsReadThenUpdatePairs(t *testing.T) {
	cfg, _ := Workload("f", 1000, 1<<20, 21)
	g := New(cfg)
	for _, stream := range g.Streams(3, 1000) {
		for i, op := range stream {
			if op.Kind != hds.Update {
				continue
			}
			if i == 0 || stream[i-1].Kind != hds.Read || stream[i-1].Key != op.Key {
				t.Fatalf("update of %d at %d not preceded by its read half", op.Key, i)
			}
		}
	}
}

func TestWorkloadDReadsFollowInserts(t *testing.T) {
	cfg, _ := Workload("d", 1000, 1<<22, 31)
	g := New(cfg)
	inserted := map[uint32]bool{}
	for _, p := range g.Load() {
		inserted[p.Key] = true
	}
	freshReads := 0
	for _, stream := range g.Streams(1, 20000) {
		for _, op := range stream {
			switch op.Kind {
			case hds.Insert:
				inserted[op.Key] = true
			case hds.Read:
				if !inserted[op.Key] {
					// A read may race ahead of the insert that mints the
					// key only under multi-thread interleaving; single
					// threaded, latest reads must target minted keys.
					t.Fatalf("read of never-inserted key %d", op.Key)
				}
			}
		}
	}
	// The latest distribution must actually reach beyond the initial
	// records: some reads hit keys minted during the run.
	gen2 := New(cfg)
	initial := map[uint32]bool{}
	for _, p := range gen2.Load() {
		initial[p.Key] = true
	}
	for _, stream := range New(cfg).Streams(1, 20000) {
		for _, op := range stream {
			if op.Kind == hds.Read && !initial[op.Key] {
				freshReads++
			}
		}
	}
	if freshReads == 0 {
		t.Fatal("read-latest never read a freshly inserted key")
	}
}

func TestKeysStayInStripeLowerPortion(t *testing.T) {
	g := New(YCSBC(50000, 1<<24, 9))
	stripe := uint32(1 << 21) // KeyMax/8
	headroom := stripe / 4    // permBits = keyBits-2 -> lower quarter
	for _, p := range g.Load() {
		off := (p.Key - 1) % stripe
		if off >= headroom {
			t.Fatalf("key %d at stripe offset %d beyond headroom %d", p.Key, off, headroom)
		}
	}
}
