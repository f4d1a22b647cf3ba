package fleet

import (
	"fmt"
	"math"
	"testing"
)

// splitmix64 generates the deterministic key corpus: the i-th key of a
// seeded corpus is a pure function of (seed, i), so every run of the
// property tests examines the identical key population.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func corpus(seed uint64, k int) []string {
	keys := make([]string, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x", splitmix64(seed+uint64(i)))
	}
	return keys
}

func nodeSet(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node%d", i)
	}
	return out
}

func mustRing(t *testing.T, nodes []string) *Ring {
	t.Helper()
	r, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatalf("NewRing(%v): %v", nodes, err)
	}
	return r
}

// TestRingRebalance is the consistent-hashing property suite over seeded
// corpora: growing the fleet from N to N+1 nodes moves at most
// ceil(K/N)+ε of K keys, and — the exact invariant behind that bound —
// every moved key moves onto the joining node; shrinking moves exactly
// the departed node's keys and nothing else.
func TestRingRebalance(t *testing.T) {
	const K = 4096
	for _, seed := range []uint64{1, 42, 0xdecafbad} {
		keys := corpus(seed, K)
		for _, n := range []int{1, 2, 3, 5, 8} {
			t.Run(fmt.Sprintf("seed=%d/n=%d", seed, n), func(t *testing.T) {
				before := mustRing(t, nodeSet(n))
				after := mustRing(t, nodeSet(n+1)) // node<n> joins
				joined := fmt.Sprintf("node%d", n)

				moved := 0
				for _, key := range keys {
					oldOwner, newOwner := before.Owners(key, 1)[0], after.Owners(key, 1)[0]
					if oldOwner == newOwner {
						continue
					}
					moved++
					if newOwner != joined {
						t.Fatalf("key %s moved %s → %s, not to the joining node %s",
							key, oldOwner, newOwner, joined)
					}
				}
				// ceil(K/N) is what a perfectly uniform ring sheds to the new
				// node when growing from N of N+1 shares; ε absorbs vnode
				// placement variance.
				bound := int(math.Ceil(float64(K)/float64(n))) + K/8
				if moved > bound {
					t.Errorf("join moved %d of %d keys, bound %d", moved, K, bound)
				}
				if n > 1 && moved == 0 {
					t.Errorf("join moved no keys — the new node owns nothing")
				}

				// Leave is the mirror image: removing the node we just added
				// must disturb only the keys it owned.
				for _, key := range keys {
					if after.Owners(key, 1)[0] != joined && before.Owners(key, 1)[0] != after.Owners(key, 1)[0] {
						t.Fatalf("key %s owned by %s changed owner on leave of %s",
							key, after.Owners(key, 1)[0], joined)
					}
				}
			})
		}
	}
}

// TestRingDistribution keeps any single node's share within a sane factor
// of uniform so one replica cannot silently absorb most of the fleet's
// load.
func TestRingDistribution(t *testing.T) {
	const K = 8192
	keys := corpus(7, K)
	for _, n := range []int{2, 3, 5} {
		r := mustRing(t, nodeSet(n))
		counts := make(map[string]int)
		for _, key := range keys {
			counts[r.Owners(key, 1)[0]]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d nodes own keys: %v", n, len(counts), counts)
		}
		uniform := float64(K) / float64(n)
		for node, got := range counts {
			if ratio := float64(got) / uniform; ratio < 0.5 || ratio > 2.0 {
				t.Errorf("n=%d: %s owns %d keys (%.2fx uniform), want within [0.5, 2.0]x",
					n, node, got, ratio)
			}
		}
	}
}

// TestRingOwners pins the fallback sequence contract: distinct nodes,
// owner first, deterministic, never longer than the fleet.
func TestRingOwners(t *testing.T) {
	r := mustRing(t, nodeSet(4))
	for _, key := range corpus(3, 64) {
		owners := r.Owners(key, 3)
		if len(owners) != 3 {
			t.Fatalf("Owners(%s, 3) = %v", key, owners)
		}
		if owner := r.Owners(key, 1)[0]; owners[0] != owner {
			t.Fatalf("Owners(%s, 3)[0] = %s, Owners(%s, 1)[0] = %s", key, owners[0], key, owner)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%s) repeats %s: %v", key, o, owners)
			}
			seen[o] = true
		}
		// Deterministic: same ring, same key, same sequence.
		again := r.Owners(key, 3)
		for i := range owners {
			if owners[i] != again[i] {
				t.Fatalf("Owners(%s) not deterministic: %v vs %v", key, owners, again)
			}
		}
	}
	if got := r.Owners("k", 99); len(got) != 4 {
		t.Errorf("Owners(k, 99) = %d nodes, want all 4", len(got))
	}
}

// TestRingValidation pins constructor errors.
func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Error("empty node ID accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Error("duplicate node ID accepted")
	}
}
