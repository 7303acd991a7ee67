package flowtable

import (
	"bytes"
	"fmt"
	"testing"
)

// refPolicy names the eviction disciplines DEC-TR-592 compares. Cache
// implements only LRU; FIFO and random live here, in refCache, as the
// test-side references policy_test.go replays the comparison against.
type refPolicy uint8

const (
	refLRU    refPolicy = iota // evict least recently used (hits refresh)
	refFIFO                    // evict oldest insertion (hits do not refresh)
	refRandom                  // evict a seeded-random slot
)

var refPolicies = []refPolicy{refLRU, refFIFO, refRandom}

func (p refPolicy) String() string { return [...]string{"lru", "fifo", "random"}[p] }

// refCache is the executable spec the fuzzer holds Cache to, and the
// FIFO/random reference policy_test.go compares LRU against: an
// ordered slice of entries (LRU newest-first with refresh-on-hit, FIFO
// newest-first without, random in slot order with a seeded xorshift64
// victim stream). Structurally naive on purpose — every operation
// rebuilds order with slice surgery — so a shared bug with the real
// cache is unlikely.
type refCache struct {
	policy refPolicy
	cap    int
	keys   []uint64
	vals   []uint64
	rng    uint64

	hits, misses, evictions int64
}

func newRefCache(capacity int, policy refPolicy, seed uint64) *refCache {
	if seed == 0 {
		seed = 1 // xorshift64 sticks at zero
	}
	return &refCache{policy: policy, cap: capacity, rng: seed}
}

func (r *refCache) xorshift() uint64 {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return r.rng
}

func (r *refCache) find(k uint64) int {
	for i, kk := range r.keys {
		if kk == k {
			return i
		}
	}
	return -1
}

func (r *refCache) moveToFront(i int) {
	k, v := r.keys[i], r.vals[i]
	r.keys = append(r.keys[:i], r.keys[i+1:]...)
	r.vals = append(r.vals[:i], r.vals[i+1:]...)
	r.keys = append([]uint64{k}, r.keys...)
	r.vals = append([]uint64{v}, r.vals...)
}

func (r *refCache) lookup(k uint64) (uint64, bool) {
	if i := r.find(k); i >= 0 {
		v := r.vals[i]
		if r.policy == refLRU {
			r.moveToFront(i)
		}
		r.hits++
		return v, true
	}
	r.misses++
	return 0, false
}

func (r *refCache) insert(k, v uint64) {
	if i := r.find(k); i >= 0 {
		r.vals[i] = v
		if r.policy == refLRU {
			r.moveToFront(i)
		}
		return
	}
	switch r.policy {
	case refRandom:
		if len(r.keys) == r.cap {
			slot := int(r.xorshift() % uint64(r.cap))
			r.evictions++
			r.keys[slot], r.vals[slot] = k, v
			return
		}
		r.keys = append(r.keys, k)
		r.vals = append(r.vals, v)
	default: // LRU, FIFO: front-insert, back-evict
		if len(r.keys) == r.cap {
			r.evictions++
			r.keys = r.keys[:len(r.keys)-1]
			r.vals = r.vals[:len(r.vals)-1]
		}
		r.keys = append([]uint64{k}, r.keys...)
		r.vals = append([]uint64{v}, r.vals...)
	}
}

func (r *refCache) invalidate(k uint64) {
	i := r.find(k)
	if i < 0 {
		return
	}
	if r.policy == refRandom {
		last := len(r.keys) - 1
		r.keys[i], r.vals[i] = r.keys[last], r.vals[last]
		r.keys, r.vals = r.keys[:last], r.vals[:last]
		return
	}
	r.keys = append(r.keys[:i], r.keys[i+1:]...)
	r.vals = append(r.vals[:i], r.vals[i+1:]...)
}

// FuzzFlowTable drives the open-addressed Table against a plain map
// and the LRU Cache against an LRU refCache through the same op
// script, demanding byte-identical observable results: every lookup,
// the full surviving contents, hit/miss tallies and the exact eviction
// order. A FIFO or random refCache (chosen by the script header) runs
// the same cache ops alongside, held to the contract every policy
// shares: a hit returns the value last inserted for the key.
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x05, 0x02, 0x05, 0x01, 0x05})
	f.Add([]byte{0x83, 0x01, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x03, 0x01, 0x04, 0x01, 0x05, 0x01})
	f.Add([]byte{0x04, 0x02, 0x03, 0x10, 0x03, 0x11, 0x03, 0x12, 0x03, 0x13, 0x03, 0x14, 0x04, 0x10})
	f.Add(bytes.Repeat([]byte{0x00, 0x07, 0x03, 0x07}, 64))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		// Header: capacity (1..8) and adversarial-hash bit, then the
		// reference policy run alongside LRU, then 2-byte ops over a
		// deliberately small key space so collisions, evictions and
		// re-insertions happen constantly.
		capacity := int(script[0]&0x07) + 1
		hash := ident
		if script[0]&0x80 != 0 {
			hash = awfulHash
		}
		tab := New[uint64, uint64](0, hash)
		ref := map[uint64]uint64{}
		cache := NewCache[uint64, uint64](capacity)
		rc := newRefCache(capacity, refLRU, 0)
		other := newRefCache(capacity, refPolicies[1+script[1]%2], 0xfeedface)
		cached := map[uint64]uint64{} // latest value inserted per cache key

		ops := script[2:]
		for i := 0; i+1 < len(ops); i += 2 {
			op, key := ops[i]%6, uint64(ops[i+1]&0x1f)
			val := uint64(i)
			switch op {
			case 0: // table insert
				tab.Insert(key, val)
				ref[key] = val
			case 1: // table delete
				got := tab.Delete(key)
				_, want := ref[key]
				if got != want {
					t.Fatalf("op %d: Delete(%d) = %v, reference %v", i, key, got, want)
				}
				delete(ref, key)
			case 2: // table lookup
				gotV, gotOK := tab.Lookup(key)
				wantV, wantOK := ref[key]
				if gotOK != wantOK || gotV != wantV {
					t.Fatalf("op %d: Lookup(%d) = %d,%v; reference %d,%v", i, key, gotV, gotOK, wantV, wantOK)
				}
			case 3: // cache insert
				cache.Insert(key, val)
				rc.insert(key, val)
				other.insert(key, val)
				cached[key] = val
			case 4: // cache lookup
				gotV, gotOK := cache.Lookup(key)
				wantV, wantOK := rc.lookup(key)
				if gotOK != wantOK || (gotOK && gotV != wantV) {
					t.Fatalf("op %d: cache Lookup(%d) = %d,%v; reference %d,%v", i, key, gotV, gotOK, wantV, wantOK)
				}
				if v, ok := other.lookup(key); ok && v != cached[key] {
					t.Fatalf("op %d: %v Lookup(%d) = %d, last inserted %d", i, other.policy, key, v, cached[key])
				}
			case 5: // cache invalidate
				cache.Invalidate(key)
				rc.invalidate(key)
				other.invalidate(key)
				delete(cached, key)
			}
			// Per-op order equality is what pins the eviction victims:
			// a wrong victim shows up as a key-order divergence on the
			// very next comparison, before reinsertion could mask it.
			if got, want := fmt.Sprint(cache.Keys()), fmt.Sprint(rc.keys); got != want {
				t.Fatalf("op %d: cache keys %s != reference %s", i, got, want)
			}
		}

		// Table: full-content equivalence, both directions.
		if tab.Len() != len(ref) {
			t.Fatalf("table Len %d != reference %d", tab.Len(), len(ref))
		}
		seen := map[uint64]uint64{}
		tab.Range(func(k, v uint64) bool {
			if _, dup := seen[k]; dup {
				t.Fatalf("Range yielded key %d twice", k)
			}
			seen[k] = v
			return true
		})
		if fmt.Sprint(seen) != fmt.Sprint(ref) {
			t.Fatalf("table contents %v != reference %v", seen, ref)
		}

		// Cache: exact order and stats.
		if got, want := fmt.Sprint(cache.Keys()), fmt.Sprint(rc.keys); got != want {
			t.Fatalf("cache keys %s != reference %s", got, want)
		}
		cs := cache.Stats()
		if cs.Hits != rc.hits || cs.Misses != rc.misses || cs.Evictions != rc.evictions {
			t.Fatalf("cache stats %+v != reference hits=%d misses=%d evictions=%d",
				cs, rc.hits, rc.misses, rc.evictions)
		}
	})
}
