package evalpool

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCacheDoContextReturnsResult(t *testing.T) {
	c := NewCache[int]()
	got, err := c.DoContext(context.Background(), "k", func() (int, error) { return 42, nil })
	if err != nil || got != 42 {
		t.Fatalf("DoContext = %d, %v", got, err)
	}
	// Second call hits the cache.
	got, err = c.DoContext(context.Background(), "k", func() (int, error) {
		t.Fatal("recomputed a cached key")
		return 0, nil
	})
	if err != nil || got != 42 {
		t.Fatalf("cached DoContext = %d, %v", got, err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1 / 1", hits, misses)
	}
}

// TestCacheDoContextHitAllocatesNothing: a lookup that finds a finished
// entry answers in the caller's goroutine, with no helper goroutine or
// channel, and still counts as a hit.
func TestCacheDoContextHitAllocatesNothing(t *testing.T) {
	c := NewCache[[]byte]().WithCapacity(4)
	ctx := context.Background()
	body := []byte("cached")
	compute := func() ([]byte, error) { return body, nil }
	if _, err := c.DoContext(ctx, "k", compute); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := c.DoContext(ctx, "k", compute); err != nil || &got[0] != &body[0] {
			t.Fatalf("hit = %q, %v", got, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a DoContext hit allocates %v times, want 0", allocs)
	}
	if hits, misses := c.Stats(); hits != 101 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 101 / 1", hits, misses)
	}
}

func TestCacheDoContextPropagatesError(t *testing.T) {
	c := NewCache[int]()
	boom := errors.New("boom")
	if _, err := c.DoContext(context.Background(), "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Deterministic errors are cached like values.
	if _, err := c.DoContext(context.Background(), "k", func() (int, error) { return 1, nil }); !errors.Is(err, boom) {
		t.Fatalf("cached err = %v, want boom", err)
	}
}

func TestCacheDoContextExpiredContext(t *testing.T) {
	c := NewCache[int]()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.DoContext(ctx, "k", func() (int, error) {
		t.Error("compute ran despite a dead context")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCacheDoContextAbandonsWait: when ctx expires mid-computation the
// caller gets the context error immediately, yet the computation still
// finishes in the background and lands in the cache.
func TestCacheDoContextAbandonsWait(t *testing.T) {
	c := NewCache[int]()
	release := make(chan struct{})
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.DoContext(ctx, "k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DoContext did not return on context cancellation")
	}
	// The abandoned computation completes and is cached for the next call.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := c.DoContext(context.Background(), "k", func() (int, error) { return -1, nil })
		if err == nil && got == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned result never reached the cache: got %d, %v", got, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCachePanic: a panicking computation re-throws to the caller that
// ran it, hands waiters an error, and leaves no poisoned entry behind.
func TestCachePanic(t *testing.T) {
	c := NewCache[int]()
	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Error("Do swallowed the panic")
			}
		}()
		c.Do("k", func() (int, error) { panic("kaboom") })
	}()
	// The entry was dropped: the key computes fresh.
	got, err := c.Do("k", func() (int, error) { return 9, nil })
	if err != nil || got != 9 {
		t.Fatalf("retry after panic = %d, %v", got, err)
	}
}

func TestCachePanicWaitersGetError(t *testing.T) {
	c := NewCache[int]()
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }() // the runner's re-thrown panic
		c.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started
	waitErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.Do("k", func() (int, error) { return 1, nil })
		waitErr <- err
	}()
	// Wait for the waiter to join the in-flight entry (its Do counts a
	// hit before blocking), then trip the panic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hits, _ := c.Stats(); hits == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the in-flight entry")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case err := <-waitErr:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter err = %v, want panic error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never returned")
	}
	wg.Wait()
}

func TestCacheDoContextPanicReachesCaller(t *testing.T) {
	c := NewCache[int]()
	defer func() {
		if p := recover(); p == nil {
			t.Error("DoContext swallowed the panic")
		}
	}()
	c.DoContext(context.Background(), "k", func() (int, error) { panic("kaboom") })
}
