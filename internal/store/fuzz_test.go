package store

import (
	"sort"
	"testing"
)

// fuzzKeys is the key range FuzzEngineOps draws from: small, so a short
// input collides, re-inserts keys it removed and makes a store reuse
// whatever it recycles (the skiplist's freed towers, tall and short).
const fuzzKeys = 48

// FuzzEngineOps decodes its input two bytes per operation — kind in the
// low three bits and an argument above them, then key — into a
// Put/Get/Update/Delete/Ascend(from, limit) sequence, applies it to every
// engine's bare native store and to a map oracle (sorted on demand for
// Ascend), and compares every result and Len; structural invariants are
// checked every 64 operations and at the end. The seed corpus runs as a
// plain test.
func FuzzEngineOps(f *testing.F) {
	var asc, desc, reinsert, oneKey []byte
	for k := byte(0); k < fuzzKeys; k++ {
		asc = append(asc, 0, k)
		desc = append(desc, 0, fuzzKeys-1-k)
		reinsert = append(reinsert, 0, k, 3, k, 0, k, 1, k)
		oneKey = append(oneKey, k%5, 7)
	}
	asc = append(asc, 4|5<<3, 0) // then Ascend(1, limit 5)
	desc = append(desc, 4|31<<3, 20)
	for _, seed := range [][]byte{asc, desc, reinsert, oneKey} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, e := range Engines() {
			s := e.NewNative(Tuning{})(0)
			inv, ok := s.(interface{ CheckInvariants() error })
			if !ok {
				t.Fatalf("%s native store exposes no CheckInvariants", e.Name)
			}
			oracle := map[uint64]uint64{}
			for i := 0; i+1 < len(data); i += 2 {
				kind, arg := data[i]&7%5, int(data[i]>>3)
				key := uint64(data[i+1]%fuzzKeys) + 1
				val := uint64(i)<<8 | uint64(arg)
				wantV, exists := oracle[key]
				switch kind {
				case 0:
					if got := s.Put(key, val); got != !exists {
						t.Fatalf("%s op %d: Put(%d) = %v, oracle exists=%v", e.Name, i/2, key, got, exists)
					}
					if !exists {
						oracle[key] = val
					}
				case 1:
					if v, got := s.Get(key); got != exists || v != wantV {
						t.Fatalf("%s op %d: Get(%d) = (%d,%v), want (%d,%v)", e.Name, i/2, key, v, got, wantV, exists)
					}
				case 2:
					if got := s.Update(key, val); got != exists {
						t.Fatalf("%s op %d: Update(%d) = %v, oracle exists=%v", e.Name, i/2, key, got, exists)
					}
					if exists {
						oracle[key] = val
					}
				case 3:
					if got := s.Delete(key); got != exists {
						t.Fatalf("%s op %d: Delete(%d) = %v, oracle exists=%v", e.Name, i/2, key, got, exists)
					}
					delete(oracle, key)
				default:
					var want []uint64
					for k := range oracle {
						if k >= key {
							want = append(want, k)
						}
					}
					sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
					n := 0
					s.Ascend(key, func(k, v uint64) bool {
						if n == arg {
							return false
						}
						if n == len(want) || k != want[n] || v != oracle[k] {
							t.Fatalf("%s op %d: Ascend(%d) pair %d = (%d,%d), oracle has %v from there", e.Name, i/2, key, n, k, v, want)
						}
						n++
						return true
					})
					if n != min(len(want), arg) {
						t.Fatalf("%s op %d: Ascend(%d, limit %d) yielded %d pairs of %v", e.Name, i/2, key, arg, n, want)
					}
				}
				if s.Len() != len(oracle) {
					t.Fatalf("%s op %d: Len = %d, oracle %d", e.Name, i/2, s.Len(), len(oracle))
				}
				if i/2%64 == 63 {
					if err := inv.CheckInvariants(); err != nil {
						t.Fatalf("%s op %d: %v", e.Name, i/2, err)
					}
				}
			}
			if err := inv.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
	})
}
