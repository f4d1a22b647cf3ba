package evalpool

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"boedag/internal/obs"
)

// Cache memoizes the results of deterministic computations by canonical
// key (see signature.go). It is safe for concurrent use and
// single-flight: when several workers request the same key at once, the
// computation runs exactly once and everyone shares the result. Errors
// are cached alongside values — a deterministic computation that failed
// once will fail identically again. Panics are not cached: the panic is
// re-thrown to the caller that ran the computation, concurrent waiters
// get an error, and the entry is dropped so a later request retries.
//
// A cache is unbounded by default; WithCapacity turns on LRU eviction so
// a long-running service holds only its hot working set. Completed
// entries can be exported (Range) and re-imported (Seed), which is how
// the prediction daemon's disk-backed warm cache survives restarts (see
// internal/cachestore and serve.Config.CacheDir).
type Cache[V any] struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry[V]
	// lru orders entries most-recently-used first; each element's Value
	// is the entry's key. Maintained for every cache so Range exports in
	// recency order even when no capacity bound is set.
	lru      *list.List
	capacity int
	// hits/misses are always tracked (Stats); the obs counters mirror
	// them, and count evictions, when a registry is attached with
	// WithMetrics.
	hits, misses        atomic.Int64
	hitC, missC, evictC *obs.Counter
}

type cacheEntry[V any] struct {
	once sync.Once
	val  V
	err  error
	// done flips after once ran (or the entry was seeded); Range exports
	// only done entries and Do short-circuits seeded ones past the once.
	done atomic.Bool
	elem *list.Element
}

// NewCache returns an empty unbounded cache.
func NewCache[V any]() *Cache[V] {
	return &Cache[V]{entries: make(map[string]*cacheEntry[V]), lru: list.New()}
}

// WithCapacity bounds the cache to at most n entries, evicting the least
// recently used beyond that (n <= 0 leaves the cache unbounded), and
// returns the cache. Evicting an entry whose computation is still in
// flight only forgets the memoization — the running computation and its
// waiters are unaffected, and a later request recomputes.
func (c *Cache[V]) WithCapacity(n int) *Cache[V] {
	c.mu.Lock()
	c.capacity = n
	c.evictLocked()
	c.mu.Unlock()
	return c
}

// WithMetrics exports the cache's hit/miss/eviction counters into the
// metrics registry as <name>_hits / <name>_misses / <name>_evictions and
// returns the cache.
func (c *Cache[V]) WithMetrics(reg *obs.Registry, name string) *Cache[V] {
	if reg != nil {
		c.hitC = reg.Counter(name + "_hits")
		c.missC = reg.Counter(name + "_misses")
		c.evictC = reg.Counter(name + "_evictions")
	}
	return c
}

// evictLocked drops least-recently-used entries until the capacity bound
// holds. Caller holds c.mu.
func (c *Cache[V]) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for len(c.entries) > c.capacity {
		back := c.lru.Back()
		if back == nil {
			return
		}
		key := back.Value.(string)
		if e := c.entries[key]; e != nil {
			e.elem = nil
		}
		delete(c.entries, key)
		c.lru.Remove(back)
		if c.evictC != nil {
			c.evictC.Inc()
		}
	}
}

// lookup finds or creates the entry for key and refreshes its recency.
// The second result reports whether the entry already existed.
func (c *Cache[V]) lookup(key string) (*cacheEntry[V], bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry[V]{}
		c.entries[key] = e
		e.elem = c.lru.PushFront(key)
		c.evictLocked()
	} else if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		if c.hitC != nil {
			c.hitC.Inc()
		}
	} else {
		c.misses.Add(1)
		if c.missC != nil {
			c.missC.Inc()
		}
	}
	return e, ok
}

// drop forgets one entry (the panic path). Caller-supplied entry identity
// guards against dropping a successor under the same key.
func (c *Cache[V]) drop(key string, e *cacheEntry[V]) {
	c.mu.Lock()
	if cur := c.entries[key]; cur == e {
		delete(c.entries, key)
		if e.elem != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
	}
	c.mu.Unlock()
}

// Do returns the cached result for key, computing it on first request.
// Concurrent callers with the same key block until the single in-flight
// computation finishes.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (V, error) {
	e, _ := c.lookup(key)
	return c.resolve(key, e, compute)
}

// resolve answers the looked-up entry e of key: at once when it is
// finished, else by running or joining its single-flight computation.
func (c *Cache[V]) resolve(key string, e *cacheEntry[V], compute func() (V, error)) (V, error) {
	if e.done.Load() {
		return e.val, e.err
	}
	var panicked any
	e.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				panicked = p
				e.err = fmt.Errorf("evalpool: computation panicked: %v", p)
				c.drop(key, e)
			}
		}()
		e.val, e.err = compute()
		e.done.Store(true)
	})
	if panicked != nil {
		panic(panicked)
	}
	return e.val, e.err
}

// Seed inserts a completed entry — a value restored from a snapshot —
// without running or counting anything: a later Do for the key is a hit
// that returns val immediately. A key already present is left untouched
// (the live entry is at least as fresh as the snapshot).
func (c *Cache[V]) Seed(key string, val V) {
	e := &cacheEntry[V]{val: val}
	e.once.Do(func() {}) // burn the once so Do never recomputes
	e.done.Store(true)
	c.mu.Lock()
	if _, ok := c.entries[key]; !ok {
		c.entries[key] = e
		e.elem = c.lru.PushFront(key)
		c.evictLocked()
	}
	c.mu.Unlock()
}

// Range calls f for every completed, successful entry in recency order —
// most recently used first, so a size-bounded snapshot keeps the hot set
// when it truncates. Iteration stops early when f returns false. Entries
// still computing, cached errors, and entries evicted mid-iteration are
// skipped; values must be treated as immutable.
func (c *Cache[V]) Range(f func(key string, val V) bool) {
	c.mu.Lock()
	type pair struct {
		key string
		val V
	}
	pairs := make([]pair, 0, len(c.entries))
	for el := c.lru.Front(); el != nil; el = el.Next() {
		key := el.Value.(string)
		if e := c.entries[key]; e != nil && e.done.Load() && e.err == nil {
			pairs = append(pairs, pair{key, e.val})
		}
	}
	c.mu.Unlock()
	for _, p := range pairs {
		if !f(p.key, p.val) {
			return
		}
	}
}

// DoContext is Do with a deadline on the wait, not on the work: when ctx
// ends while the key's single-flight computation is still running —
// whether this caller started it or joined another's — DoContext returns
// ctx's error immediately and the computation keeps going in the
// background, so its result still lands in the cache for the next
// request. Hit/miss accounting is identical to Do. A finished entry is
// answered in the caller's goroutine; only a lookup that has to wait
// starts the helper goroutine that waits for it.
func (c *Cache[V]) DoContext(ctx context.Context, key string, compute func() (V, error)) (V, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	e, _ := c.lookup(key)
	if e.done.Load() {
		return e.val, e.err
	}
	type outcome struct {
		val      V
		err      error
		panicked any
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{panicked: p}
			}
		}()
		v, err := c.resolve(key, e, compute)
		done <- outcome{val: v, err: err}
	}()
	select {
	case o := <-done:
		if o.panicked != nil {
			// Re-throw in the caller's goroutine so its recovery middleware
			// (not this helper goroutine) owns the panic.
			panic(o.panicked)
		}
		return o.val, o.err
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

// Stats returns how many Do calls hit respectively missed the cache.
func (c *Cache[V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
