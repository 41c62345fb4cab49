// Package memo is the single-flight LRU memo under the daemon's two shared
// caches: dimemas.ReplayCache (baseline replays and timing skeletons) and
// pwrsimd's generated-trace memo. Concurrent lookups of one key share one
// computation; a bound, when set, evicts the least recently used entry.
//
// Two error classes are never memoized, or a cache would serve a dead
// request's cancellation, or a transient chaos fault, to every later
// caller: a context abort (context.Canceled or DeadlineExceeded) and an
// injected fault (internal/faults).
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/faults"
)

// Memo is a bounded single-flight memo from K to V. Safe for concurrent
// use. An evicted in-flight entry still completes for the callers already
// waiting on it; later lookups recompute it.
type Memo[K comparable, V any] struct {
	mu        sync.Mutex
	max       int // 0 means unbounded
	m         map[K]*list.Element
	lru       *list.List // front = most recently used; values are *item[K, V]
	hits      int64
	misses    int64
	evictions int64
}

type entry[V any] struct {
	once sync.Once
	v    V
	err  error
}

type item[K comparable, V any] struct {
	key K
	e   *entry[V]
}

// Stats is a point-in-time snapshot of a Memo's counters.
type Stats struct {
	// Hits counts lookups that found a memoized (or in-flight) entry.
	Hits int64
	// Misses counts lookups that had to start a fresh computation.
	Misses int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Entries is the current number of memoized entries.
	Entries int
}

// New returns an empty memo holding at most maxEntries entries; maxEntries
// ≤ 0 means unbounded.
func New[K comparable, V any](maxEntries int) *Memo[K, V] {
	return &Memo[K, V]{max: max(maxEntries, 0), m: make(map[K]*list.Element), lru: list.New()}
}

// Do returns the value memoized under k, computing it with fill on first
// use. ctx is the caller's context (nil for none). A fill that fails with an
// injected fault is evicted and its error returned; the next lookup
// recomputes. A fill aborted by a context error is evicted too: a caller
// whose own ctx has ended gets its own ctx's error, and one whose ctx is
// live retries, falling back to an uncached fill after repeated aborts by
// peers rather than looping on them.
func (c *Memo[K, V]) Do(ctx context.Context, k K, fill func() (V, error)) (V, error) {
	for attempt := 0; ; attempt++ {
		e := c.entryFor(k)
		e.once.Do(func() { e.v, e.err = fill() })
		if e.err == nil || (!isCtxErr(e.err) && !faults.IsInjected(e.err)) {
			return e.v, e.err
		}
		c.evict(k, e)
		if !isCtxErr(e.err) {
			return e.v, e.err
		}
		if ctx != nil {
			if own := ctx.Err(); own != nil {
				var zero V
				return zero, own
			}
		}
		if attempt >= 2 {
			return fill()
		}
	}
}

// entryFor returns the single-flight entry for k, inserting (and possibly
// evicting) under the lock.
func (c *Memo[K, V]) entryFor(k K) *entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		return el.Value.(*item[K, V]).e
	}
	c.misses++
	e := &entry[V]{}
	c.m[k] = c.lru.PushFront(&item[K, V]{key: k, e: e})
	if c.max > 0 && c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*item[K, V]).key)
		c.evictions++
	}
	return e
}

// evict drops e if it is still the entry memoized under k.
func (c *Memo[K, V]) evict(k K, e *entry[V]) {
	c.mu.Lock()
	if el, ok := c.m[k]; ok && el.Value.(*item[K, V]).e == e {
		c.lru.Remove(el)
		delete(c.m, k)
	}
	c.mu.Unlock()
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Errors lists the error of every entry that memoized a failure (for tests
// and diagnostics). An entry still in flight is waited on, so a quiescing
// caller sees the settled state.
func (c *Memo[K, V]) Errors() []error {
	c.mu.Lock()
	entries := make([]*entry[V], 0, len(c.m))
	for _, el := range c.m {
		entries = append(entries, el.Value.(*item[K, V]).e)
	}
	c.mu.Unlock()
	var errs []error
	for _, e := range entries {
		// once.Do on a completed entry is an immediate no-op that also
		// publishes e.err; on an in-flight one it waits for the fill.
		e.once.Do(func() {})
		if e.err != nil {
			errs = append(errs, e.err)
		}
	}
	return errs
}

// Stats snapshots the counters.
func (c *Memo[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.m)}
}
