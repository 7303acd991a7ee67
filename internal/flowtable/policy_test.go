package flowtable

import (
	"math/rand"
	"testing"
)

// zipfTrace builds a skewed flow-reference trace the way DEC-TR-592
// characterizes real traffic: a small set of destinations absorbs most
// references (Zipf popularity), and references cluster in time (a
// packet train re-references flows seen moments ago). The temporal
// component matters for the policy comparison: on a pure
// independent-reference trace FIFO and random have provably equal hit
// ratios, and it is recency that separates them — exactly what the
// report observed on real traffic. Deterministic per seed.
func zipfTrace(seed int64, flows uint64, n int, s float64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, s, 1, flows-1)
	out := make([]uint64, n)
	var recent [8]uint64 // ring of recently referenced flows
	for i := range out {
		if i >= len(recent) && r.Float64() < 0.35 {
			// Packet-train re-reference: revisit a recent flow, biased
			// toward the most recent.
			back := 1 + r.Intn(len(recent))
			if r.Float64() < 0.5 {
				back = 1 + r.Intn(2)
			}
			out[i] = recent[(i-back)%len(recent)]
		} else {
			out[i] = z.Uint64()
		}
		recent[i%len(recent)] = out[i]
	}
	return out
}

// replay runs a trace through a cache of the given policy and reports
// the hit rate. Misses insert (the lookupPCB pattern: cache miss →
// table lookup → cache fill). LRU runs the real Cache; FIFO and random
// run their refCache references.
func replay(trace []uint64, policy refPolicy, cap int, seed uint64) float64 {
	if policy == refLRU {
		c := NewCache[uint64, uint64](cap)
		for _, f := range trace {
			if _, ok := c.Lookup(f); !ok {
				c.Insert(f, f)
			}
		}
		return c.Stats().HitRate()
	}
	r := newRefCache(cap, policy, seed)
	for _, f := range trace {
		if _, ok := r.lookup(f); !ok {
			r.insert(f, f)
		}
	}
	return float64(r.hits) / float64(r.hits+r.misses)
}

// TestEvictionPolicyOrdering replays Jain-style skewed traces through
// all three policies and asserts the ordering DEC-TR-592 measures on
// traffic with temporal locality: LRU ≥ FIFO ≥ random — the measured
// reason Cache ships LRU only. Each seed is a distinct trace; the
// ordering must hold on every one, and the exact hit rates are
// deterministic per seed (asserted by replaying one).
func TestEvictionPolicyOrdering(t *testing.T) {
	const (
		flows    = 4096
		accesses = 200_000
		skew     = 1.2
		cacheCap = 16
	)
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		trace := zipfTrace(seed, flows, accesses, skew)
		lru := replay(trace, refLRU, cacheCap, 99)
		fifo := replay(trace, refFIFO, cacheCap, 99)
		random := replay(trace, refRandom, cacheCap, 99)
		t.Logf("seed %d: lru=%.4f fifo=%.4f random=%.4f", seed, lru, fifo, random)
		if lru < fifo {
			t.Errorf("seed %d: LRU (%.4f) < FIFO (%.4f) on skewed trace", seed, lru, fifo)
		}
		if fifo < random {
			t.Errorf("seed %d: FIFO (%.4f) < random (%.4f) on skewed trace", seed, fifo, random)
		}
		// A Zipf-skewed trace with a 16-entry cache should hit a lot
		// under LRU — locality is the whole premise.
		if lru < 0.5 {
			t.Errorf("seed %d: LRU hit rate %.4f implausibly low", seed, lru)
		}
		// Determinism: same trace, same cache seed, same answer.
		if again := replay(trace, refRandom, cacheCap, 99); again != random {
			t.Errorf("seed %d: random policy replay diverged (%.6f vs %.6f)", seed, again, random)
		}
	}
}
