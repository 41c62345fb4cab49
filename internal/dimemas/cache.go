package dimemas

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/faults"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// replayKey identifies one memoized artifact: a baseline (all-ranks-at-FMax)
// replay or a timing skeleton. It carries the trace (by identity — traces
// are immutable once simulated), an optional slice discriminator for
// per-iteration replays, and every simulation input the artifact depends on.
type replayKey struct {
	tr       *trace.Trace
	slice    int // -1 for the whole trace; iteration index for slices
	beta     float64
	fmax     float64
	platform Platform
	// machine is Machine.Fingerprint(): the canonical encoding of the
	// topology and capability layers. "" for the flat homogeneous machine,
	// so keys minted by the plain-Platform API are unchanged.
	machine  string
	timeline bool
	skeleton bool // true for timing-skeleton entries (timeline is false)
}

// replayEntry single-flights one memoized computation: a baseline Result or
// a timing Skeleton, depending on the key.
type replayEntry struct {
	once sync.Once
	res  *Result
	skel *Skeleton
	err  error
}

// lruItem pairs a key with its entry so eviction from the list can also
// delete the map slot.
type lruItem struct {
	key   replayKey
	entry *replayEntry
}

// CacheStats is a point-in-time snapshot of a ReplayCache's counters.
type CacheStats struct {
	// Hits counts lookups that found a memoized (or in-flight) entry.
	Hits int64
	// Misses counts lookups that had to start a fresh computation.
	Misses int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Entries is the current number of memoized entries (replays plus
	// skeletons).
	Entries int
}

// ReplayCache memoizes the two per-trace artifacts every analysis pipeline
// re-derives — the baseline replay (Options.Freqs == nil, every rank at
// FMax) and the frequency-independent timing skeleton — keyed by (trace, β,
// FMax, platform). Sweeps, gear searches and server requests that evaluate
// many gear assignments over the same trace pay for each artifact once and
// retime everything else.
//
// Cached Results and Skeletons are shared: callers must treat them as
// read-only. Keying is by trace identity, so traces must not be mutated
// after their first cached use. Safe for concurrent use; concurrent misses
// on the same key are single-flighted. A computation that aborts because
// its caller's Options.Ctx expired is not memoized: the entry is dropped so
// the next lookup recomputes instead of replaying a dead request's
// cancellation forever.
//
// A cache built with NewReplayCacheWithLimit evicts the least recently used
// entry once it holds more than the configured number, so long-running
// processes (e.g. the pwrsimd daemon) hold a bounded working set. An
// evicted in-flight entry still completes for the callers already waiting
// on it; later lookups simply recompute it.
type ReplayCache struct {
	mu        sync.Mutex
	max       int // 0 means unbounded
	m         map[replayKey]*list.Element
	lru       *list.List // front = most recently used; values are *lruItem
	hits      int64
	misses    int64
	evictions int64
}

// NewReplayCache returns an empty, unbounded cache.
func NewReplayCache() *ReplayCache { return NewReplayCacheWithLimit(0) }

// NewReplayCacheWithLimit returns an empty cache bounded to at most
// maxEntries memoized entries (LRU eviction). maxEntries ≤ 0 means
// unbounded.
func NewReplayCacheWithLimit(maxEntries int) *ReplayCache {
	if maxEntries < 0 {
		maxEntries = 0
	}
	return &ReplayCache{
		max: maxEntries,
		m:   make(map[replayKey]*list.Element),
		lru: list.New(),
	}
}

// OriginalMachine returns the memoized baseline replay of t on machine m
// under opts, simulating it on first use. Machines are distinguished in the
// key by their fingerprint, so heterogeneous per-request machines share one
// cache safely. A nil receiver, or options carrying explicit per-rank
// frequencies (which the cache does not index), degrade to a plain uncached
// SimulateMachine call, so callers can thread an optional cache without
// branching.
func (c *ReplayCache) OriginalMachine(t *trace.Trace, m Machine, opts Options) (*Result, error) {
	return c.original(t, -1, t, m, opts)
}

// Original is OriginalMachine on the flat machine of p. It stays because
// the benchmark module (pwrbench) calls it.
func (c *ReplayCache) Original(t *trace.Trace, p Platform, opts Options) (*Result, error) {
	return c.OriginalMachine(t, FlatMachine(p), opts)
}

// OriginalSlice is OriginalMachine for a per-iteration sub-trace: sub must
// be parent.Slice(iteration, iteration+1). Keying on (parent, iteration)
// instead of the sub-trace pointer lets repeated emulations of the same
// parent trace (which re-slice it every run) share the replays.
func (c *ReplayCache) OriginalSlice(parent *trace.Trace, iteration int, sub *trace.Trace, m Machine, opts Options) (*Result, error) {
	return c.original(parent, iteration, sub, m, opts)
}

// SkeletonForMachine returns the memoized timing skeleton of t on machine m
// under opts (Options.Freqs and RecordTimeline are irrelevant to the key —
// the skeleton covers every gear assignment and timeline mode). A nil
// receiver builds an uncached skeleton.
func (c *ReplayCache) SkeletonForMachine(t *trace.Trace, m Machine, opts Options) (*Skeleton, error) {
	return c.skeleton(t, -1, t, m, opts)
}

// SkeletonFor is SkeletonForMachine on the flat machine of p. It stays
// because the benchmark module (pwrbench) calls it.
func (c *ReplayCache) SkeletonFor(t *trace.Trace, p Platform, opts Options) (*Skeleton, error) {
	return c.SkeletonForMachine(t, FlatMachine(p), opts)
}

// SkeletonForSliceMachine is SkeletonForMachine for a per-iteration
// sub-trace: sub must be parent.Slice(iteration, iteration+1). Keying on
// (parent, iteration) lets repeated runs over the same parent trace (which
// re-slice it every run — policy sweeps, benchmarks, repeated server
// requests) share one skeleton, exactly as OriginalSlice does for baseline
// replays.
func (c *ReplayCache) SkeletonForSliceMachine(parent *trace.Trace, iteration int, sub *trace.Trace, m Machine, opts Options) (*Skeleton, error) {
	return c.skeleton(parent, iteration, sub, m, opts)
}

func (c *ReplayCache) skeleton(keyTrace *trace.Trace, slice int, build *trace.Trace, m Machine, opts Options) (*Skeleton, error) {
	if c == nil {
		return BuildSkeletonMachine(build, m, opts)
	}
	k := replayKey{
		tr:       keyTrace,
		slice:    slice,
		beta:     opts.Beta,
		fmax:     opts.FMax,
		platform: m.Base,
		machine:  m.Fingerprint(),
		skeleton: true,
	}
	e, err := c.flight(k, opts, func(e *replayEntry) { e.skel, e.err = BuildSkeletonMachine(build, m, opts) })
	if err != nil {
		return nil, err
	}
	return e.skel, e.err
}

// ReplayMachine returns the replay of t on machine m under opts: the
// memoized baseline when opts.Freqs is nil, and a skeleton retiming —
// bit-identical to SimulateMachine but an order of magnitude cheaper — when
// per-rank frequencies are given. A nil receiver degrades to a plain
// SimulateMachine call.
func (c *ReplayCache) ReplayMachine(t *trace.Trace, m Machine, opts Options) (*Result, error) {
	if opts.Freqs == nil {
		return c.OriginalMachine(t, m, opts)
	}
	if c == nil {
		return SimulateMachine(t, m, opts)
	}
	sk, err := c.SkeletonForMachine(t, m, opts)
	if err != nil {
		return nil, err
	}
	return sk.Retime(opts.Freqs, opts.RecordTimeline)
}

func (c *ReplayCache) original(keyTrace *trace.Trace, slice int, sim *trace.Trace, m Machine, opts Options) (*Result, error) {
	if c == nil || opts.Freqs != nil {
		return SimulateMachine(sim, m, opts)
	}
	k := replayKey{
		tr:       keyTrace,
		slice:    slice,
		beta:     opts.Beta,
		fmax:     opts.FMax,
		platform: m.Base,
		machine:  m.Fingerprint(),
		timeline: opts.RecordTimeline,
	}
	e, err := c.flight(k, opts, func(e *replayEntry) { e.res, e.err = SimulateMachine(sim, m, opts) })
	if err != nil {
		return nil, err
	}
	return e.res, e.err
}

// flight single-flights compute under k. Two error classes must never be
// memoized — a computation aborted by its caller's context, and an injected
// fault (internal/faults) — or the cache would serve a dead request's
// cancellation, or a transient chaos fault, to every later caller. Context
// aborts evict the entry and a waiter whose own context is live retries,
// falling back to an uncached computation (a fresh, unshared entry) after
// repeated peer cancellations; the returned error is only ever the waiter's
// own context error. Injected faults evict the entry and surface to the
// caller directly — the next lookup recomputes from scratch.
func (c *ReplayCache) flight(k replayKey, opts Options, compute func(*replayEntry)) (*replayEntry, error) {
	for attempt := 0; ; attempt++ {
		e := c.entryFor(k)
		e.once.Do(func() {
			if err := faults.Check(faults.CacheFill); err != nil {
				e.err = stagerr.Wrap(stagerr.Cache, err)
				return
			}
			compute(e)
		})
		if e.err != nil && faults.IsInjected(e.err) {
			c.evict(k, e)
			return e, nil
		}
		retry, direct, ctxErr := c.retryAfterCtxError(k, e, opts, attempt)
		if ctxErr != nil {
			return nil, ctxErr
		}
		if direct {
			e := &replayEntry{}
			compute(e)
			return e, nil
		}
		if retry {
			continue
		}
		return e, nil
	}
}

// evict drops e from the cache if it is still the entry memoized under k.
func (c *ReplayCache) evict(k replayKey, e *replayEntry) {
	c.mu.Lock()
	if el, ok := c.m[k]; ok && el.Value.(*lruItem).entry == e {
		c.lru.Remove(el)
		delete(c.m, k)
	}
	c.mu.Unlock()
}

// entryFor returns the single-flight entry for k, inserting (and possibly
// LRU-evicting) under the lock.
func (c *ReplayCache) entryFor(k replayKey) *replayEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		return el.Value.(*lruItem).entry
	}
	c.misses++
	e := &replayEntry{}
	c.m[k] = c.lru.PushFront(&lruItem{key: k, entry: e})
	if c.max > 0 && c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*lruItem).key)
		c.evictions++
	}
	return e
}

// retryAfterCtxError handles the one error class that must not be
// memoized: a computation aborted by the computing caller's context. The
// poisoned entry is dropped; a waiter whose own context died meanwhile
// gets its own context's error (not the computing peer's), and a waiter
// whose context is still live retries (bounded), falling back to an
// uncached computation rather than looping on repeatedly cancelled peers.
func (c *ReplayCache) retryAfterCtxError(k replayKey, e *replayEntry, opts Options, attempt int) (retry, direct bool, ctxErr error) {
	if e.err == nil || !isCtxErr(e.err) {
		return false, false, nil
	}
	c.evict(k, e)
	if opts.Ctx != nil {
		if own := opts.Ctx.Err(); own != nil {
			return false, false, own
		}
	}
	if attempt >= 2 {
		return false, true, nil
	}
	return true, false, nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// MemoizedErrors lists the errors of every completed entry that memoized a
// failure (for tests and diagnostics — chiefly the chaos soak's cache-
// poisoning invariant: no entry may hold an injected fault or a context
// error). An entry still in flight is waited on, so a quiescing test sees
// the settled state.
func (c *ReplayCache) MemoizedErrors() []error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	entries := make([]*replayEntry, 0, len(c.m))
	for _, el := range c.m {
		entries = append(entries, el.Value.(*lruItem).entry)
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

// Len reports the number of memoized entries (for tests and diagnostics).
func (c *ReplayCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats snapshots the hit/miss/eviction counters. Safe on a nil receiver
// (returns zeros).
func (c *ReplayCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.m)}
}
