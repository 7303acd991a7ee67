package flowtable

// The recently-active flow cache sits in front of a Table and
// generalizes the paper's single-entry PCB cache (§2): Jain's
// DEC-TR-592 measured strong destination-address locality in real
// traffic and showed a handful of recently-used entries absorb most
// lookups — with the caveat that the eviction policy matters, which
// that report compares empirically (LRU vs FIFO vs random). The Cache
// is LRU, the policy that report (and this package's policy_test.go,
// which replays the comparison against test-side FIFO and random
// references) finds best; eviction never changes lookup results, only
// which entries stay warm.
//
// Capacity is deliberately tiny (default 8): the scan is a straight
// key-array walk that stays within one or two cache lines, which is
// the whole point — a hit never touches the Table at all.

// DefaultCacheSize is the capacity NewCache substitutes for n <= 0.
const DefaultCacheSize = 8

// Cache is a fixed-capacity least-recently-used flow cache. Like Table
// it is single-writer, owned by one shard. Entries are kept in parallel
// key/value arrays ordered newest-first: a hit or an update moves the
// entry to the front, and a full cache evicts the back.
type Cache[K comparable, V any] struct {
	keys []K
	vals []V
	used int

	hits      int64
	misses    int64
	evictions int64
}

// NewCache builds a cache of capacity n (DefaultCacheSize if n <= 0).
func NewCache[K comparable, V any](n int) *Cache[K, V] {
	if n <= 0 {
		n = DefaultCacheSize
	}
	return &Cache[K, V]{keys: make([]K, n), vals: make([]V, n)}
}

// Cap reports the cache's capacity.
func (c *Cache[K, V]) Cap() int { return len(c.keys) }

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int { return c.used }

// toFront moves slot i to the front, shifting newer entries back one.
func (c *Cache[K, V]) toFront(i int, k K, v V) {
	copy(c.keys[1:i+1], c.keys[:i])
	copy(c.vals[1:i+1], c.vals[:i])
	c.keys[0] = k
	c.vals[0] = v
}

// Lookup scans for k; a hit moves the entry to the front.
//
//ldlp:hotpath
func (c *Cache[K, V]) Lookup(k K) (V, bool) {
	for i := 0; i < c.used; i++ {
		if c.keys[i] == k {
			v := c.vals[i]
			if i > 0 {
				c.toFront(i, k, v)
			}
			c.hits++
			return v, true
		}
	}
	c.misses++
	var zero V
	return zero, false
}

// Insert adds k at the front (or updates it and moves it there),
// evicting the least recently used entry when full.
//
//ldlp:hotpath
func (c *Cache[K, V]) Insert(k K, v V) {
	for i := 0; i < c.used; i++ {
		if c.keys[i] == k {
			c.toFront(i, k, v)
			return
		}
	}
	n := c.used
	if n == len(c.keys) {
		n--
		c.evictions++
	} else {
		c.used++
	}
	c.toFront(n, k, v)
}

// Invalidate removes k if cached (the teardown path: a dead PCB must
// not be served from the cache).
func (c *Cache[K, V]) Invalidate(k K) {
	for i := 0; i < c.used; i++ {
		if c.keys[i] != k {
			continue
		}
		copy(c.keys[i:c.used-1], c.keys[i+1:c.used])
		copy(c.vals[i:c.used-1], c.vals[i+1:c.used])
		c.used--
		var zeroK K
		var zeroV V
		c.keys[c.used] = zeroK
		c.vals[c.used] = zeroV
		return
	}
}

// Reset empties the cache (stats are kept; they are cumulative).
func (c *Cache[K, V]) Reset() {
	var zeroK K
	var zeroV V
	for i := 0; i < c.used; i++ {
		c.keys[i] = zeroK
		c.vals[i] = zeroV
	}
	c.used = 0
}

// Keys returns the cached keys most recently used first. Allocates;
// for tests and diagnostics, not the hot path.
func (c *Cache[K, V]) Keys() []K {
	out := make([]K, c.used)
	copy(out, c.keys[:c.used])
	return out
}

// CacheStats is a quiescent snapshot of a cache's effectiveness.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats reports hit/miss/eviction tallies.
func (c *Cache[K, V]) Stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// HitRate reports hits/(hits+misses), 0 when no lookups happened.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}
