// Package ycsb is a from-scratch workload generator compatible with the
// Yahoo! Cloud Serving Benchmark core workloads used in the HybriDS paper:
// a load phase of uniformly scattered keys plus operation streams with
// configurable read/update/insert/remove mixes and zipfian or uniform key
// popularity (YCSB-C = 100% reads, zipfian). It also generates the paper's
// custom sensitivity workloads (§5.2), including the B+ tree
// "targeted-split" insert pattern that forces maximum node splits at the
// last leaf of each NMP partition.
//
// Record index -> key mapping uses a keyed Feistel permutation: keys are
// unique by construction (no dedup state even for tens of millions of
// records), uniformly scattered (which doubles as YCSB's zipfian
// scrambling), and fresh insert keys simply continue the index sequence.
// The key space is viewed as 8 equal stripes and generated keys land in
// the lowest quarter of each stripe when log2 KeyMax is even and the
// lowest eighth when it is odd, so range partitions stay balanced for any
// power-of-two partition count up to 8 while the rest of each stripe
// leaves headroom for the PartitionTail pattern's incrementing keys.
package ycsb

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/prng"
)

// Dist selects the popularity distribution for read/update/remove keys.
type Dist int

// Distributions.
const (
	Uniform Dist = iota
	Zipfian
	// Latest draws keys zipfian-skewed toward the most recently inserted
	// record (YCSB-D's read-latest popularity): rank 0 is the newest key,
	// so as the workload's inserts mint fresh records the hot set follows
	// them instead of staying pinned to the initial load.
	Latest
)

func (d Dist) String() string {
	switch d {
	case Zipfian:
		return "zipfian"
	case Latest:
		return "latest"
	}
	return "uniform"
}

// InsertPattern selects how insert keys are chosen.
type InsertPattern int

const (
	// FreshUniform mints previously unused keys scattered uniformly
	// (no systematic B+ tree node splits beyond normal growth).
	FreshUniform InsertPattern = iota
	// PartitionTail mints incrementing keys just past the current
	// maximum of each NMP partition, round-robin across partitions:
	// every insert lands on the partition's last leaf and forces the
	// maximum possible node splits while spreading load evenly (§5.2).
	PartitionTail
)

// Pair is a load-phase record.
type Pair = kv.Pair

// Config parameterizes a workload.
type Config struct {
	// Records is the initial record count (the paper loads 2^22 keys
	// into skiplists and ~30M into B+ trees).
	Records int
	// KeyMax is the exclusive key-space bound (a power of two); load and
	// fresh-insert keys sit in the lowest quarter (log2 KeyMax even) or
	// eighth (odd) of each of its 8 stripes, up to about 0.9*KeyMax.
	KeyMax uint32
	// ReadPct/UpdatePct/InsertPct/RemovePct/ScanPct/RMWPct must sum to
	// 100 (the paper's X-Y-Z mixes are read-insert-remove).
	ReadPct, UpdatePct, InsertPct, RemovePct int
	// ScanPct is the SCAN percentage (YCSB-E): each scan op carries a
	// start key from the popularity distribution and a zipfian-skewed
	// length in Op.Value, at most maxScanLen pairs.
	ScanPct int
	// RMWPct is the read-modify-write percentage (YCSB-F): each draw
	// emits a Read followed by an Update of the same key, so the stream
	// carries both halves of the RMW as adjacent operations.
	RMWPct int
	// Dist is the popularity distribution for read/update/remove keys.
	Dist Dist
	// ZipfTheta is the zipfian skew (YCSB default 0.99).
	ZipfTheta float64
	// Inserts selects the insert key pattern.
	Inserts InsertPattern
	// Partitions is required by PartitionTail: the NMP partition count
	// (key ranges are KeyMax/Partitions).
	Partitions int
	Seed       uint64
}

// YCSBC returns the paper's baseline workload: read-only, zipfian.
func YCSBC(records int, keyMax uint32, seed uint64) Config {
	return Config{Records: records, KeyMax: keyMax, ReadPct: 100, Dist: Zipfian, ZipfTheta: 0.99, Seed: seed}
}

// Mix returns a read-insert-remove sensitivity workload with uniform key
// popularity (§5.2: "workloads with varying ratios of insertions and
// removals and uniform distribution of accessed keys").
func Mix(records int, keyMax uint32, read, insert, remove int, seed uint64) Config {
	return Config{Records: records, KeyMax: keyMax, ReadPct: read, InsertPct: insert, RemovePct: remove,
		Dist: Uniform, Seed: seed}
}

// coreWorkloads are YCSB's core workloads by name: a one-line description
// and the mix.
var coreWorkloads = map[string]struct {
	desc                            string
	read, update, insert, scan, rmw int
	dist                            Dist
}{
	"a": {"YCSB-A (50/50 read/update, zipfian)", 50, 50, 0, 0, 0, Zipfian},
	"b": {"YCSB-B (95/5 read/update, zipfian)", 95, 5, 0, 0, 0, Zipfian},
	"c": {"YCSB-C (100% zipfian reads)", 100, 0, 0, 0, 0, Zipfian},
	"d": {"YCSB-D (95/5 read/insert, read-latest)", 95, 0, 5, 0, 0, Latest},
	"e": {"YCSB-E (95/5 scan/insert, zipfian scan lengths)", 0, 0, 5, 95, 0, Zipfian},
	"f": {"YCSB-F (50/50 read/read-modify-write, zipfian)", 50, 0, 0, 0, 50, Zipfian},
}

// Workload returns the named YCSB core workload over records preloaded
// keys: "a" (50/50 read/update), "b" (95/5 read/update), "c" (100%
// reads), "d" (95/5 read/insert with the read-latest popularity that
// follows the freshly inserted keys), "e" (95/5 scan/insert, zipfian scan
// lengths) or "f" (50/50 read/read-modify-write); all but "d" draw keys
// zipfian.
func Workload(name string, records int, keyMax uint32, seed uint64) (Config, error) {
	w, ok := coreWorkloads[name]
	if !ok {
		return Config{}, fmt.Errorf("ycsb: unknown workload %q (want a-f)", name)
	}
	return Config{Records: records, KeyMax: keyMax, ReadPct: w.read, UpdatePct: w.update,
		InsertPct: w.insert, ScanPct: w.scan, RMWPct: w.rmw, Dist: w.dist, Seed: seed}, nil
}

// WorkloadDesc returns the one-line description of a core workload for
// report titles; unknown names return the name itself.
func WorkloadDesc(name string) string {
	if w, ok := coreWorkloads[name]; ok {
		return w.desc
	}
	return name
}

// keyPerm is a 4-round Feistel permutation over [0, 2^bits): a keyed
// bijection, so distinct indices always yield distinct keys.
type keyPerm struct {
	half uint
	mask uint64
	seed uint64
}

func newKeyPerm(bits uint, seed uint64) keyPerm {
	return keyPerm{half: bits / 2, mask: 1<<(bits/2) - 1, seed: seed}
}

func (p keyPerm) apply(i uint64) uint64 {
	l := (i >> p.half) & p.mask
	r := i & p.mask
	for round := uint64(0); round < 4; round++ {
		l, r = r, l^(prng.Mix64(r^p.seed^(round<<48))&p.mask)
	}
	return l<<p.half | r
}

// Generator produces a load set and deterministic per-thread op streams.
type Generator struct {
	cfg      Config
	perm     keyPerm
	permBits uint   // Feistel domain width (even)
	keyBits  uint   // log2(KeyMax)
	fresh    uint64 // next fresh record index for FreshUniform inserts
}

// Validate reports why New would refuse cfg, or nil: the mix must sum to
// 100, Records be positive, KeyMax a power of two of at least 2^8 whose
// Feistel domain holds Records with insert headroom, ZipfTheta lie in
// (0, 1), where Gray et al.'s constants hold (0 selects 0.99), and
// PartitionTail inserts name their Partitions.
func (cfg Config) Validate() error {
	sum := cfg.ReadPct + cfg.UpdatePct + cfg.InsertPct + cfg.RemovePct +
		cfg.ScanPct + cfg.RMWPct
	if sum != 100 {
		return fmt.Errorf("ycsb: op mix sums to %d, want 100", sum)
	}
	if cfg.Records <= 0 {
		return fmt.Errorf("ycsb: Records %d must be positive", cfg.Records)
	}
	if cfg.KeyMax == 0 || cfg.KeyMax&(cfg.KeyMax-1) != 0 {
		return fmt.Errorf("ycsb: KeyMax %d must be a power of two", cfg.KeyMax)
	}
	keyBits := uint(bits.TrailingZeros32(cfg.KeyMax))
	if keyBits < 8 {
		return fmt.Errorf("ycsb: KeyMax %d too small (want at least 2^8)", cfg.KeyMax)
	}
	if most := uint64(1) << ((keyBits-2)&^1 - 1); uint64(cfg.Records) > most {
		return fmt.Errorf("ycsb: KeyMax %d leaves insert headroom for at most %d records, not %d", cfg.KeyMax, most, cfg.Records)
	}
	if t := cfg.ZipfTheta; t != 0 && !(t > 0 && t < 1) {
		return fmt.Errorf("ycsb: ZipfTheta %v outside (0, 1)", t)
	}
	if cfg.Inserts == PartitionTail && cfg.Partitions <= 0 {
		return fmt.Errorf("ycsb: PartitionTail requires Partitions")
	}
	return nil
}

// New builds a generator, panicking with Validate's error on a config it
// refuses.
func New(cfg Config) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.ZipfTheta == 0 {
		cfg.ZipfTheta = 0.99
	}
	keyBits := uint(bits.TrailingZeros32(cfg.KeyMax))
	// The Feistel permutation needs an even width; keys use 3 stripe bits
	// plus the rest as intra-stripe offset, all drawn from the permuted
	// index.
	permBits := (keyBits - 2) &^ 1
	return &Generator{
		cfg:      cfg,
		perm:     newKeyPerm(permBits, cfg.Seed^0x10ad10ad),
		permBits: permBits,
		keyBits:  keyBits,
		fresh:    uint64(cfg.Records),
	}
}

// key maps a record index to its key: the permuted index's top 3 bits pick
// one of 8 stripes and the rest lands at the bottom of the stripe,
// leaving tail headroom at every stripe's top.
func (g *Generator) key(idx uint64) uint32 {
	v := g.perm.apply(idx)
	stripe := v >> (g.permBits - 3)
	off := v & (1<<(g.permBits-3) - 1)
	return uint32(stripe<<(g.keyBits-3)|off) + 1
}

// Load returns the load-phase records (values derived from keys), each
// computed from its index alone, so in parallel.
func (g *Generator) Load() []Pair {
	out := make([]Pair, g.cfg.Records)
	inWaves(len(out), func(first int, dst []Pair) {
		for j := range dst {
			k := g.key(uint64(first + j))
			dst[j] = Pair{Key: k, Value: uint32(prng.Mix64(uint64(k)))}
		}
	}, func(first int, wave []Pair) { copy(out[first:], wave) })
	return out
}

// waveBlock is how many values each P computes per wave: 64 KiB of terms.
const waveBlock = 8192

// inWaves covers [0, n) in waves: fill writes GOMAXPROCS blocks of one
// buffer on as many goroutines, then use reads it on the caller, in index
// order. The workers never hold what use writes to, so a stale word on a
// dead worker's stack keeps only the buffer alive (DESIGN §5.10).
func inWaves[T any](n int, fill, use func(first int, wave []T)) {
	buf := make([]T, min(n, runtime.GOMAXPROCS(0)*waveBlock))
	for first := 0; first < n; first += len(buf) {
		wave := buf[:min(len(buf), n-first)]
		fanOut(len(wave), func(lo, hi int) { fill(first+lo, wave[lo:hi]) })
		use(first, wave)
	}
}

// fanOut splits [0, n) into GOMAXPROCS contiguous ranges, calls fn on
// each on its own goroutine and returns when every call has.
func fanOut(n int, fn func(lo, hi int)) {
	parts := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(n*p/parts, n*(p+1)/parts)
		}()
	}
	wg.Wait()
}

// Streams generates op streams for the given number of threads,
// opsPerThread each. Fresh insert keys are globally unique across threads
// and across successive Streams calls.
//
// The output is that of drawing round-robin, one logical draw per thread
// per round in thread order, which balances PartitionTail keys across
// threads. A thread's draws depend only on its own picker, so the threads
// draw their streams in GOMAXPROCS parallel chunks, and fill then
// resolves the keys that depend on state shared across threads in that
// order (DESIGN §5.10).
func (g *Generator) Streams(threads, opsPerThread int) [][]kv.Op {
	work := make([][]kv.Op, threads)
	for t := range work {
		work[t] = make([]kv.Op, 0, opsPerThread)
	}
	tail := g.newTailCursors()
	// Picker 0, built here, computes the zeta sums on this goroutine: from a
	// draw goroutine, their workers left the streams a stale stack word (§5.10).
	g.newPicker(0)
	fanOut(threads, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			work[t] = g.newPicker(uint64(t)).draw(work[t], opsPerThread)
		}
	})
	g.fill(work, tail)
	// The goroutines' closures and fill's frames leave words pointing at
	// work on stacks that a GC may later scan conservatively (an
	// asynchronously preempted frame). Cleared, work keeps no stream
	// alive after the caller drops the copy it gets (DESIGN §5.10).
	streams := slices.Clone(work)
	clear(work)
	return streams
}

// rmwHalf is, under Latest, the key draw gives an RMW's update half: the
// half takes the key fill resolves for the read before it. Ranks are below
// Records <= KeyMax/4, so no rank equals it.
const rmwHalf = ^uint32(0)

// draw appends one thread's logical draws to dst until it holds n ops (an
// RMW clipped at the end keeps only its read half). Keys that depend on
// state shared across threads are left for fill: an insert's Key is its
// draw index, and under Latest every other op's Key is its zipfian rank.
func (p *picker) draw(dst []kv.Op, n int) []kv.Op {
	c := &p.g.cfg
	for j := uint32(0); len(dst) < n; j++ {
		r := p.rng.Intn(100)
		switch {
		case r < c.ReadPct:
			dst = append(dst, kv.Op{Kind: hds.Read, Key: p.existing()})
		case r < c.ReadPct+c.UpdatePct:
			dst = append(dst, kv.Op{Kind: hds.Update, Key: p.existing(), Value: p.rng.Uint32()})
		case r < c.ReadPct+c.UpdatePct+c.InsertPct:
			dst = append(dst, kv.Op{Kind: hds.Insert, Key: j, Value: p.rng.Uint32()})
		case r < c.ReadPct+c.UpdatePct+c.InsertPct+c.RemovePct:
			dst = append(dst, kv.Op{Kind: hds.Remove, Key: p.existing()})
		case r < c.ReadPct+c.UpdatePct+c.InsertPct+c.RemovePct+c.ScanPct:
			dst = append(dst, kv.Op{Kind: hds.Scan, Key: p.existing(), Value: p.scanLen()})
		default: // read-modify-write: read the key, then write it back
			key := p.existing()
			dst = append(dst, kv.Op{Kind: hds.Read, Key: key})
			if len(dst) < n {
				if c.Dist == Latest {
					key = rmwHalf
				}
				dst = append(dst, kv.Op{Kind: hds.Update, Key: key, Value: p.rng.Uint32()})
			}
		}
	}
	return dst
}

// fill resolves the keys draw left, visiting draws round-robin: round j
// takes every thread's j-th logical draw, in thread order (an RMW is one
// draw of two ops, so threads differ in draw count). An insert mints the
// next fresh (or PartitionTail) key, and a read-latest rank counts back
// from the newest key minted so far, so both resolve in this one pass.
// Without Latest only inserts are visited, each in the round its draw
// index names.
func (g *Generator) fill(streams [][]kv.Op, tail *tailCursors) {
	latest := g.cfg.Dist == Latest
	if !latest && g.cfg.InsertPct == 0 {
		return
	}
	next := make([]int, len(streams)) // each thread's first unresolved op
	for j, live := uint32(0), true; live; j++ {
		live = false
		for t, s := range streams {
			i := next[t]
			for !latest && i < len(s) && s[i].Kind != hds.Insert {
				i++
			}
			next[t] = i
			if i == len(s) {
				continue
			}
			live = true
			op := &s[i]
			if op.Kind == hds.Insert && op.Key > j {
				continue // this thread's next insert is a later draw
			}
			next[t] = i + 1
			switch {
			case op.Kind == hds.Insert && tail != nil:
				op.Key = tail.next()
			case op.Kind == hds.Insert:
				op.Key = g.key(g.fresh)
				g.fresh++
			default:
				op.Key = g.key(g.fresh - 1 - uint64(op.Key))
				if i+1 < len(s) && s[i+1].Key == rmwHalf {
					s[i+1].Key = op.Key
					next[t] = i + 2
				}
			}
		}
	}
}

// picker draws keys from the configured popularity distribution over the
// initial records.
type picker struct {
	g    *Generator
	rng  *prng.Source
	zipf *zipfian
	// scan draws zipfian-skewed scan lengths (rank 0 -> length 1).
	scan *zipfian
}

func (g *Generator) newPicker(salt uint64) *picker {
	p := &picker{g: g, rng: prng.New(g.cfg.Seed ^ prng.Mix64(salt+0x9c))}
	if g.cfg.Dist == Zipfian || g.cfg.Dist == Latest {
		p.zipf = newZipfian(uint64(g.cfg.Records), g.cfg.ZipfTheta, prng.New(g.cfg.Seed^prng.Mix64(salt+0x2f)))
	}
	if g.cfg.ScanPct > 0 {
		p.scan = newZipfian(maxScanLen, g.cfg.ZipfTheta, prng.New(g.cfg.Seed^prng.Mix64(salt+0x51)))
	}
	return p
}

// existing draws the key of an initial record, or under Latest its rank.
func (p *picker) existing() uint32 {
	switch {
	case p.g.cfg.Dist == Latest:
		// Read-latest (YCSB-D): fill counts the rank back from the most
		// recently minted record, so the hot set tracks the workload's
		// own inserts. Ranks stay below Records <= fresh.
		return uint32(p.zipf.next())
	case p.zipf != nil:
		// The Feistel index->key permutation already scatters hot
		// items over the key space (YCSB's ScrambledZipfian), keeping
		// partitions balanced.
		return p.g.key(p.zipf.next())
	default:
		return p.g.key(uint64(p.rng.Intn(p.g.cfg.Records)))
	}
}

// maxScanLen bounds scan lengths: the YCSB default of 100 pairs.
const maxScanLen = 100

// scanLen draws one zipfian scan length in [1, maxScanLen].
func (p *picker) scanLen() uint32 {
	return uint32(p.scan.next()) + 1
}

// tailCursors implements PartitionTail: per-partition incrementing keys
// starting just above the partition's largest load key. cursors[p] is the
// last key handed out (or the floor below the first valid mint for a
// partition with no load keys), so the next mint is always cursors[p]+1.
type tailCursors struct {
	cursors []uint32
	his     []uint32
	next_   int
}

func (g *Generator) newTailCursors() *tailCursors {
	if g.cfg.Inserts != PartitionTail {
		return nil
	}
	part := kv.RangePartitioner{KeyMax: g.cfg.KeyMax, Parts: g.cfg.Partitions}
	t := &tailCursors{}
	maxInPart := make([]uint32, g.cfg.Partitions)
	for i := 0; i < g.cfg.Records; i++ {
		k := g.key(uint64(i))
		p := part.Part(k)
		if k > maxInPart[p] {
			maxInPart[p] = k
		}
	}
	for p := 0; p < g.cfg.Partitions; p++ {
		lo, hi := part.Range(p)
		cursor := maxInPart[p]
		if cursor == 0 {
			// No load key landed in this partition: start one below the
			// partition's first valid key so lo itself is minted (key 0
			// is the reserved -inf sentinel, so partition 0 starts at 1).
			cursor = max(lo, 1) - 1
		}
		t.cursors = append(t.cursors, cursor)
		t.his = append(t.his, hi)
	}
	return t
}

func (t *tailCursors) next() uint32 {
	for tries := 0; tries < len(t.cursors); tries++ {
		p := t.next_
		t.next_ = (t.next_ + 1) % len(t.cursors)
		// The candidate key is cursors[p]+1; every key up to and
		// including the partition's top key his[p]-1 is mintable.
		if t.cursors[p] < t.his[p]-1 {
			t.cursors[p]++
			return t.cursors[p]
		}
	}
	panic("ycsb: partition tails exhausted; increase KeyMax headroom")
}

// zipfian is YCSB's bounded zipfian generator (Gray et al.'s rejection
// inversion constants): item 0 is the hottest.
type zipfian struct {
	*zipfTable
	rng *prng.Source
}

// zipfTable is a bounded zipfian's constants and guide table, computed
// once per (items, theta) and shared by every generator drawing from it.
type zipfTable struct {
	items             uint64
	alpha, zetan, eta float64
	// rank1 is 1+0.5^theta: a draw with u*zetan in [1, rank1) is rank 1.
	rank1 float64
	// guide[m>>(53-guideBits)] is the rank fromU gives every draw m of the
	// bucket, or guideMiss (DESIGN §5.10).
	guide []uint32
}

const (
	guideBits = 16         // 2^16 buckets, 256 KiB a table
	guideMiss = ^uint32(0) // no rank: ranks are below Records <= KeyMax/4
	// guideMargin is how far, relatively, fromU's pow branch must stay from
	// an integer at a bucket's edges; its rounding error is about 1e-13.
	guideMargin = 1e-9
)

func newZipfian(items uint64, theta float64, rng *prng.Source) *zipfian {
	return &zipfian{zipfTable: zipfTableFor(items, theta), rng: rng}
}

// zetaCache holds each (items, theta) table once; generators built on
// different goroutines share it.
var (
	zetaMu    sync.Mutex
	zetaCache = map[[2]uint64]*zipfTable{}
)

// zipfTableFor returns the (items, theta) table, built on the first call.
func zipfTableFor(items uint64, theta float64) *zipfTable {
	zetaMu.Lock()
	defer zetaMu.Unlock()
	ck := [2]uint64{items, math.Float64bits(theta)}
	if t, ok := zetaCache[ck]; ok {
		return t
	}
	zetan := zetaStatic(items, theta)
	t := &zipfTable{
		items: items, zetan: zetan,
		alpha: 1 / (1 - theta),
		eta:   (1 - math.Pow(2/float64(items), 1-theta)) / (1 - zetaStatic(2, theta)/zetan),
		rank1: 1 + math.Pow(0.5, theta),
	}
	t.guide = t.newGuide()
	zetaCache[ck] = t
	return t
}

// zetaStatic returns the sum over i in [1, n] of 1/i^theta; the terms are
// added in index order: the plain loop's sum, bit for bit.
func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	inWaves(int(n), func(first int, dst []float64) {
		for j := range dst {
			dst[j] = 1 / math.Pow(float64(first+j+1), theta)
		}
	}, func(_ int, wave []float64) {
		for _, x := range wave {
			sum += x
		}
	})
	return sum
}

// newGuide builds the guide table from its 2^guideBits+1 edges, one pow
// each; a bucket holds the draws with u in [i, i+1) / 2^guideBits. u*zetan
// is monotone in u, so edges inside one early branch's region prove its
// rank. For theta < 1 the pow branch is a strictly increasing function of
// u computed to about 1e-13, so values of at least k(1+guideMargin) at the
// left edge and at most (k+1)(1-guideMargin) at the right prove rank k; at
// least items-1 becomes items-1, so that rank needs only the left edge.
// The table is cached for good, so the workers may write it.
func (t *zipfTable) newGuide() []uint32 {
	guide := make([]uint32, 1<<guideBits)
	edge := func(i int) (uz, c float64) {
		u := float64(i) / (1 << guideBits)
		return u * t.zetan, t.pow(u)
	}
	fanOut(len(guide), func(lo, hi int) {
		luz, lc := edge(lo)
		for i := lo; i < hi; i++ {
			ruz, rc := edge(i + 1)
			k := min(uint64(lc), t.items-1)
			switch {
			case ruz < 1:
				guide[i] = 0
			case luz >= 1 && ruz < t.rank1:
				guide[i] = 1
			case luz >= t.rank1 && t.alpha > 0 && lc >= float64(k)*(1+guideMargin) &&
				(k == t.items-1 || rc <= float64(k+1)*(1-guideMargin)):
				guide[i] = uint32(k)
			default:
				guide[i] = guideMiss
			}
			luz, lc = ruz, rc
		}
	})
	return guide
}

func (z *zipfian) next() uint64 {
	return z.fromM(z.rng.Next() >> 11)
}

// fromM maps one draw m in [0, 2^53) to fromU(m/2^53)'s rank, the u
// prng.Float64 gives for the same Next: from the guide table where it
// holds one, else from fromU.
func (z *zipfian) fromM(m uint64) uint64 {
	if r := z.guide[m>>(53-guideBits)]; r != guideMiss {
		return uint64(r)
	}
	return z.fromU(float64(m) / (1 << 53))
}

// fromU maps one uniform draw u in [0, 1) to a zipfian rank. Split out of
// next so boundary values of u are directly testable: with u close enough
// to 1, float64(items)*pow(...) rounds up to items — one past the valid
// rank range — so the result is clamped to items-1.
func (z *zipfian) fromU(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	v := uint64(z.pow(u))
	if v >= z.items {
		v = z.items - 1
	}
	return v
}

// pow is fromU's pow branch before truncation.
func (t *zipfTable) pow(u float64) float64 {
	return float64(t.items) * math.Pow(t.eta*u-t.eta+1, t.alpha)
}
