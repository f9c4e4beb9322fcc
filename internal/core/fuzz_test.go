package core

import (
	"slices"
	"sort"
	"testing"

	"hybrids/internal/hds"
)

// fuzzHeader is the number of leading bytes FuzzBatcherRounds reads as
// its map's shape before the operations.
const fuzzHeader = 5

// fuzzShape decodes the header: the partition count (1-8); the key space,
// either small (KeyMax 2-256, every key reachable from a byte) or the
// default 2^62 (a byte b is key b<<54+1, spread over the whole space);
// the window (1-64); the number of ops each Apply call takes (1-32); and
// the number of keys (0-255) Build loads before the operations: key
// i*4 + i/64 of the byte keys, so the first 64 are every fourth and up
// to 255 are distinct. A header byte of 192 or more, over KeyMax 256 on
// one partition, makes a table of 4 buckets, where a key's two buckets
// differ.
func fuzzShape(h []byte) (cfg Config, window, cut, preload int, key func(b byte) uint64) {
	cfg.Partitions = int(h[0]%8) + 1
	if h[1]&0x80 != 0 {
		cfg.KeyMax = 1 << 62
		key = func(b byte) uint64 { return uint64(b)<<54 + 1 }
	} else {
		cfg.KeyMax = 2 + uint64(h[1])*2
		key = func(b byte) uint64 { return 1 + uint64(b)%(cfg.KeyMax-1) }
	}
	return cfg, int(h[2]%64) + 1, int(h[3]%32) + 1, int(h[4]), key
}

// FuzzBatcherRounds drives one Batcher over a map whose shape the leading
// bytes choose (fuzzShape), decoding the rest two bytes per operation as
// FuzzEngineOps does — kind in the low three bits (insert, read, update,
// remove, scan) and an argument above them (a scan's limit), then the key
// (a scan starts one below it, so from 0 too) — and cutting the stream
// into Apply calls of a fixed length. One caller's Batcher is sequential,
// so every outcome and every scan's pairs must equal a sorted-map
// oracle's, and so must Dump and Len at the end. A map starts empty or
// from at most 255 built keys. The seed corpus runs as a plain test.
func FuzzBatcherRounds(f *testing.F) {
	var mixed, scans, oneKey, readWriteRead, spread []byte
	for k := byte(0); k < 64; k++ {
		mixed = append(mixed, k%4, k*5, 1, k*5)
		scans = append(scans, 4|(k%9)<<3, k*3, 0, k*7)
		oneKey = append(oneKey, k%5|k<<3, 9)
	}
	// Reads of built keys install their pairs in the host portion; then
	// each of four keys is read, written and read again, every kind of
	// write in turn, so a read after a write must not be answered from a
	// pair the write left behind. With a window of 64 and 32 ops a call
	// the writes and the reads around them share a round; with a window
	// of 1 each is a round of its own.
	for i := range 32 {
		readWriteRead = append(readWriteRead, 1, byte(4*(i%16)))
	}
	for k := byte(0); k < 16; k += 4 {
		readWriteRead = append(readWriteRead, 1, k, 2, k, 1, k, 3, k, 1, k, 0, k, 1, k)
	}
	// Every key of 255 built over KeyMax 256 is read, so the 4-bucket
	// table overflows into second buckets and evicts across both; then
	// each key is read, updated, removed or inserted in turn, and read
	// again, so a write must clear its key's pair from either bucket.
	for k := range 255 {
		spread = append(spread, 1, byte(k))
	}
	for k := range 255 {
		spread = append(spread, 1, byte(k), []byte{2, 3, 0}[k%3], byte(k), 1, byte(k))
	}
	for _, seed := range [][]byte{
		append([]byte{3, 40, 15, 31, 0}, mixed...),    // 4 partitions, window 16, empty
		append([]byte{7, 127, 63, 7, 64}, mixed...),   // 8 partitions, window 64, built
		append([]byte{0, 20, 0, 0, 12}, scans...),     // 1 partition, window 1, one op per call
		append([]byte{2, 100, 3, 12, 33}, scans...),   // 3 partitions, window 4
		append([]byte{7, 1, 15, 31, 5}, scans...),     // 8 partitions, KeyMax 4: some own no key
		append([]byte{5, 0x80, 15, 20, 40}, scans...), // 6 partitions over 2^62
		append([]byte{1, 0x80, 7, 31, 0}, mixed...),   // 2 partitions over 2^62
		append([]byte{3, 60, 5, 9, 64}, oneKey...),    // one key, every kind
		append([]byte{7, 127, 15, 31, 16}, append(scans, mixed...)...),
		append([]byte{0, 20, 63, 31, 16}, readWriteRead...), // one round
		append([]byte{0, 20, 0, 0, 16}, readWriteRead...),   // across rounds
		append([]byte{0, 127, 15, 31, 255}, spread...),      // 4 buckets, both hashes
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeader {
			return
		}
		cfg, window, cut, preload, key := fuzzShape(data[:fuzzHeader])
		data = data[fuzzHeader:]
		h := New(cfg)
		defer h.Close()
		oracle := map[uint64]uint64{}
		var built []KV
		for i := range preload {
			kv := KV{Key: key(byte(i*4 + i/64)), Value: uint64(1000 + i)}
			built = append(built, kv)
			if _, dup := oracle[kv.Key]; !dup { // Build keeps the first
				oracle[kv.Key] = kv.Value
			}
		}
		h.Build(built)
		ascend := func(from uint64, limit int) []KV {
			var out []KV
			for k, v := range oracle {
				if k >= from {
					out = append(out, KV{Key: k, Value: v})
				}
			}
			sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
			return out[:min(len(out), limit)]
		}
		b := h.NewBatcher(window)
		var ops []hds.Request
		var want []Outcome
		var wantPairs [][]KV
		for i := 0; i+1 < len(data); i += 2 {
			kind, arg, k := data[i]&7%5, uint64(data[i]>>3), key(data[i+1])
			old, exists := oracle[k]
			val := uint64(i)<<8 | arg
			op, res := hds.Request{Key: k, Value: val}, hds.Result{}
			var pairs []KV
			switch kind {
			case 0:
				op.Kind, res.OK = hds.Insert, !exists
				if !exists {
					oracle[k] = val
				}
			case 1:
				op.Kind, op.Value, res = hds.Read, 0, hds.Result{Value: old, OK: exists}
			case 2:
				op.Kind, res.OK = hds.Update, exists
				if exists {
					oracle[k] = val
				}
			case 3:
				op.Kind, op.Value, res.OK = hds.Remove, 0, exists
				delete(oracle, k)
			default:
				op = hds.Request{Kind: hds.Scan, Key: k - 1, Value: arg}
				pairs = ascend(k-1, int(arg))
				res = hds.Result{Value: uint64(len(pairs)), OK: true}
			}
			ops, want, wantPairs = append(ops, op), append(want, Outcome{Result: res}), append(wantPairs, pairs)
			if len(ops) < cut && i+3 < len(data) {
				continue
			}
			out := make([]Outcome, len(ops))
			b.Apply(ops, out)
			for j := range ops {
				if out[j] != want[j] {
					t.Fatalf("op %d (%v key %d): outcome %+v, want %+v", i/2-len(ops)+1+j, ops[j].Kind, ops[j].Key, out[j], want[j])
				}
				if ops[j].Kind == hds.Scan && !slices.Equal(b.Pairs(j), wantPairs[j]) {
					t.Fatalf("op %d: scan from %d limit %d = %v, want %v", i/2-len(ops)+1+j, ops[j].Key, ops[j].Value, b.Pairs(j), wantPairs[j])
				}
			}
			ops, want, wantPairs = ops[:0], want[:0], wantPairs[:0]
		}
		all := ascend(0, len(oracle))
		if got := h.Dump(); !slices.Equal(got, all) {
			t.Fatalf("Dump = %v, want %v", got, all)
		}
		if n := h.Len(); n != len(all) {
			t.Fatalf("Len = %d, want %d", n, len(all))
		}
	})
}
