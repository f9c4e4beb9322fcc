package store

import (
	"sort"
	"testing"
)

// fuzzKeys is the number of keys FuzzEngineOps draws from: small, so a
// short input collides, re-inserts keys it removed and refills the leaf
// slots its deletes emptied.
const fuzzKeys = 48

// fuzzPreload is the number of keys — the multiples of fuzzStride, in
// ascending order — the store and the oracle hold before the fuzzed
// operations start: enough that the B+ tree is three levels of full
// nodes, so a few dozen fuzzed operations reach leaf, inner and root
// splits.
const (
	fuzzPreload = 4096
	fuzzStride  = 64
)

// fuzzKey maps an input byte to one of the fuzzKeys fuzzed keys, all of
// them in gaps of the preload: the first half spread over its whole range
// (each in a different full leaf), the second half adjacent in its middle
// gap (enough of them to split a leaf twice).
func fuzzKey(b byte) uint64 {
	j := uint64(b % fuzzKeys)
	if j < fuzzKeys/2 {
		return j*(fuzzPreload/(fuzzKeys/2))*fuzzStride + 1
	}
	return fuzzPreload/2*fuzzStride + j
}

// FuzzEngineOps decodes its input two bytes per operation — kind in the
// low three bits and an argument above them, then key — into a
// Put/Get/Update/Delete/Ascend(from, limit) sequence, applies it to the
// bare native store every engine shares (preloaded, see fuzzPreload) and
// to a map oracle (merged with the preload and sorted on demand for
// Ascend), and compares every result and Len; structural invariants are
// checked every 64 operations and at the end. The seed corpus runs as a
// plain test.
func FuzzEngineOps(f *testing.F) {
	var asc, desc, reinsert, oneKey []byte
	// A read, a write of the same key and a read again: the second read
	// must find what the write left, whichever leaf the key is in.
	var readDelete, readUpdate, readDeletePut []byte
	for k := byte(0); k < fuzzKeys; k++ {
		asc = append(asc, 0, k)
		desc = append(desc, 0, fuzzKeys-1-k)
		reinsert = append(reinsert, 0, k, 3, k, 0, k, 1, k)
		oneKey = append(oneKey, k%5, 7)
		readDelete = append(readDelete, 0, k, 1, k, 3, k, 1, k)
		readUpdate = append(readUpdate, 0, k, 1, k, 2, k, 1, k)
		readDeletePut = append(readDeletePut, 0, k, 1, k, 3, k, 0, k, 1, k)
	}
	asc = append(asc, 4|5<<3, 0) // then Ascend(1, limit 5)
	desc = append(desc, 4|31<<3, 20)
	for _, seed := range [][]byte{asc, desc, reinsert, oneKey, readDelete, readUpdate, readDeletePut} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newNative(0)
		inv := s.(interface{ CheckInvariants() error })
		// The oracle holds the fuzzed keys only: no operation names a
		// preloaded key, so the preload stays k*fuzzStride -> k.
		oracle := map[uint64]uint64{}
		for k := uint64(1); k <= fuzzPreload; k++ {
			s.Put(k*fuzzStride, k)
		}
		for i := 0; i+1 < len(data); i += 2 {
			kind, arg := data[i]&7%5, int(data[i]>>3)
			key := fuzzKey(data[i+1])
			val := uint64(i)<<8 | uint64(arg)
			wantV, exists := oracle[key]
			switch kind {
			case 0:
				if got := s.Put(key, val); got != !exists {
					t.Fatalf("op %d: Put(%d) = %v, oracle exists=%v", i/2, key, got, exists)
				}
				if !exists {
					oracle[key] = val
				}
			case 1:
				if v, got := s.Get(key); got != exists || v != wantV {
					t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", i/2, key, v, got, wantV, exists)
				}
			case 2:
				if got := s.Update(key, val); got != exists {
					t.Fatalf("op %d: Update(%d) = %v, oracle exists=%v", i/2, key, got, exists)
				}
				if exists {
					oracle[key] = val
				}
			case 3:
				if got := s.Delete(key); got != exists {
					t.Fatalf("op %d: Delete(%d) = %v, oracle exists=%v", i/2, key, got, exists)
				}
				delete(oracle, key)
			default:
				var want []uint64
				for k := range oracle {
					if k >= key {
						want = append(want, k)
					}
				}
				// The limit never reaches past arg preloaded keys.
				first := (key + fuzzStride - 1) / fuzzStride
				for k := first; k <= fuzzPreload && k < first+uint64(arg); k++ {
					want = append(want, k*fuzzStride)
				}
				sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
				n := 0
				s.Ascend(key, func(k, v uint64) bool {
					if n == arg {
						return false
					}
					pairV := oracle[k]
					if k%fuzzStride == 0 {
						pairV = k / fuzzStride
					}
					if n == len(want) || k != want[n] || v != pairV {
						t.Fatalf("op %d: Ascend(%d) pair %d = (%d,%d), oracle has %v from there", i/2, key, n, k, v, want)
					}
					n++
					return true
				})
				if n != min(len(want), arg) {
					t.Fatalf("op %d: Ascend(%d, limit %d) yielded %d pairs of %v", i/2, key, arg, n, want)
				}
			}
			if s.Len() != fuzzPreload+len(oracle) {
				t.Fatalf("op %d: Len = %d, oracle %d", i/2, s.Len(), fuzzPreload+len(oracle))
			}
			if i/2%64 == 63 {
				if err := inv.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", i/2, err)
				}
			}
		}
		if err := inv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
