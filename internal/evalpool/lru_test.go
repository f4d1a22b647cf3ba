package evalpool

import (
	"fmt"
	"sync"
	"testing"

	"boedag/internal/obs"
)

func fill(c *Cache[int], n int) {
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%03d", i)
		v := i
		c.Do(k, func() (int, error) { return v, nil })
	}
}

func TestCacheCapacityEvictsLRU(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache[int]().WithCapacity(3).WithMetrics(reg, "c")
	fill(c, 5) // k000..k004; k000 and k001 must be gone
	if got := len(c.entries); got != 3 {
		t.Fatalf("%d entries, want 3", got)
	}
	if got := reg.Counter("c_evictions").Value(); got != 2 {
		t.Errorf("c_evictions counter = %d, want 2", got)
	}
	// The survivors are the three most recent; an evicted key recomputes.
	recomputed := 0
	c.Do("k000", func() (int, error) { recomputed++; return 0, nil })
	if recomputed != 1 {
		t.Errorf("evicted key did not recompute")
	}
	hitBefore, _ := c.Stats()
	c.Do("k004", func() (int, error) { t.Error("hot key recomputed"); return 0, nil })
	if hitAfter, _ := c.Stats(); hitAfter != hitBefore+1 {
		t.Errorf("hot key was not a hit")
	}
}

func TestCacheLRUTouchOnHit(t *testing.T) {
	c := NewCache[int]().WithCapacity(2)
	fill(c, 2)                                          // k000, k001
	c.Do("k000", func() (int, error) { return 0, nil }) // touch k000
	c.Do("k002", func() (int, error) { return 2, nil }) // evicts k001, not k000
	ran := false
	c.Do("k000", func() (int, error) { ran = true; return 0, nil })
	if ran {
		t.Errorf("recently touched key was evicted")
	}
	ran = false
	c.Do("k001", func() (int, error) { ran = true; return 1, nil })
	if !ran {
		t.Errorf("least recently used key survived eviction")
	}
}

func TestCacheSeedServesWithoutCompute(t *testing.T) {
	c := NewCache[string]()
	c.Seed("warm", "restored")
	v, err := c.Do("warm", func() (string, error) {
		t.Error("seeded key recomputed")
		return "", nil
	})
	if err != nil || v != "restored" {
		t.Fatalf("Do(seeded) = %q, %v", v, err)
	}
	if hits, _ := c.Stats(); hits != 1 {
		t.Errorf("seeded lookup counted %d hits, want 1", hits)
	}
	// Seeding an existing key must not clobber the live entry.
	c.Do("live", func() (string, error) { return "computed", nil })
	c.Seed("live", "stale-snapshot")
	v, _ = c.Do("live", func() (string, error) { return "", nil })
	if v != "computed" {
		t.Errorf("Seed overwrote a live entry: got %q", v)
	}
}

func TestCacheRangeExportsCompletedInRecencyOrder(t *testing.T) {
	c := NewCache[int]()
	fill(c, 3)                                          // k000 k001 k002
	c.Do("k000", func() (int, error) { return 0, nil }) // touch: k000 now MRU
	c.Do("err", func() (int, error) { return 0, fmt.Errorf("boom") })
	var keys []string
	c.Range(func(k string, v int) bool {
		keys = append(keys, k)
		return true
	})
	want := []string{"k000", "k002", "k001"}
	if len(keys) != len(want) {
		t.Fatalf("Range exported %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Range exported %v, want %v", keys, want)
		}
	}
	// Early stop.
	n := 0
	c.Range(func(string, int) bool { n++; return false })
	if n != 1 {
		t.Errorf("Range ignored early stop: %d calls", n)
	}
}

func TestCacheCapacityConcurrent(t *testing.T) {
	c := NewCache[int]().WithCapacity(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (w*7+i)%32)
				v := i
				c.Do(k, func() (int, error) { return v, nil })
				c.Range(func(string, int) bool { return true })
			}
		}(w)
	}
	wg.Wait()
	if got := len(c.entries); got > 8 {
		t.Errorf("%d entries exceed capacity 8", got)
	}
}
