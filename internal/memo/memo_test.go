package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
)

func TestDoSingleFlightsConcurrentLookups(t *testing.T) {
	m := New[string, int](0)
	var fills atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do(context.Background(), "k", func() (int, error) {
				fills.Add(1)
				<-release
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("%d fills for one key, want 1", n)
	}
	if st := m.Stats(); st.Hits+st.Misses != 16 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 miss, 15 hits, 1 entry", st)
	}
}

func TestDoEvictsLeastRecentlyUsed(t *testing.T) {
	m := New[int, int](2)
	fill := func(k int) { m.Do(nil, k, func() (int, error) { return k, nil }) }
	fill(1)
	fill(2)
	fill(1) // 2 is now the least recently used
	fill(3)
	if st := m.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 entries, 1 eviction", st)
	}
	before := m.Stats().Misses
	fill(1)
	if m.Stats().Misses != before {
		t.Fatal("recently used key 1 was evicted")
	}
	fill(2)
	if m.Stats().Misses != before+1 {
		t.Fatal("least recently used key 2 was not evicted")
	}
}

func TestDoMemoizesOrdinaryErrors(t *testing.T) {
	m := New[string, int](0)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		if _, err := m.Do(nil, "k", func() (int, error) { calls++; return 0, boom }); err != boom {
			t.Fatalf("Do err = %v, want boom", err)
		}
	}
	if calls != 1 || len(m.Errors()) != 1 {
		t.Fatalf("%d fills, %d memoized errors; want a memoized failure", calls, len(m.Errors()))
	}
}

func TestDoDoesNotMemoizeInjectedFaults(t *testing.T) {
	m := New[string, int](0)
	injected := &faults.InjectedError{Point: faults.CacheFill, N: 1}
	if _, err := m.Do(nil, "k", func() (int, error) { return 0, injected }); !faults.IsInjected(err) {
		t.Fatalf("Do err = %v, want the injected fault", err)
	}
	if len(m.Errors()) != 0 {
		t.Fatal("injected fault memoized")
	}
	if v, err := m.Do(nil, "k", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("refill = %d, %v", v, err)
	}
}

func TestDoDoesNotMemoizeContextAborts(t *testing.T) {
	m := New[string, int](0)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	// The caller's own context ended: it gets its own context's error.
	if _, err := m.Do(dead, "k", func() (int, error) { return 0, dead.Err() }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do err = %v, want context.Canceled", err)
	}
	if st := m.Stats(); st.Entries != 0 {
		t.Fatalf("aborted fill memoized (%d entries)", st.Entries)
	}
	// A caller with a live context whose fills keep aborting (a peer's
	// cancellation) retries, then falls back to an uncached fill.
	calls := 0
	v, err := m.Do(context.Background(), "k", func() (int, error) {
		calls++
		if calls <= 3 {
			return 0, context.DeadlineExceeded
		}
		return 5, nil
	})
	if v != 5 || err != nil || calls != 4 {
		t.Fatalf("Do = %d, %v after %d fills; want 5 from the uncached fourth fill", v, err, calls)
	}
	if st := m.Stats(); st.Entries != 0 {
		t.Fatalf("uncached fallback left %d entries", st.Entries)
	}
}
