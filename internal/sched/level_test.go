package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"boedag/internal/cluster"
)

// TestLevelGrantLeavesShortTail: on the estimator's pool shapes (the
// paper cluster, with and without a slot limit) and its requests (no
// holdings, 1–2 GB containers of one vcore, pending from a single task
// to far more than the pool), the level prefix leaves the heap at most
// jobs+1 grants, and the whole fill still matches the scan oracle.
func TestLevelGrantLeavesShortTail(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, slots := range []int{0, 12, 40, 64, 100} {
		pool := PoolOf(cluster.PaperCluster()).WithSlotLimit(slots)
		for trial := 0; trial < 200; trial++ {
			n := 1 + r.Intn(30)
			reqs := make([]Request, n)
			ids := r.Perm(1000)
			for i := range reqs {
				reqs[i] = Request{
					JobID:    fmt.Sprintf("j%03d", ids[i]),
					MemoryMB: 1024 * (1 + r.Intn(2)),
					VCores:   1,
					Pending:  1 + r.Intn(2*pool.Slots),
				}
			}
			f := newFlatFill(pool, reqs, nil)
			f.levelGrant()
			tail := 0
			progressiveFill(f.heap, n, f.drfKey, f.eligible, func(k int) {
				tail++
				f.grantOne(k)
			})
			if tail > n+1 {
				t.Errorf("slots %d, %d jobs: the heap made %d grants after the level", pool.Slots, n, tail)
			}
			if got, want := f.allocation(true), drfScan(pool, reqs, nil); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("slots %d, %d jobs: level fill %v, scan %v", pool.Slots, n, got, want)
			}
		}
	}
}

// TestLevelGrantMatchesHeapFill: with or without the level prefix the
// DRF fill ends in the same grants, over random pools (unlimited
// dimensions included), holdings, caps, pending counts, zero and mixed
// container shapes, and repeated JobIDs.
func TestLevelGrantMatchesHeapFill(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dim := func(max int) int { return r.Intn(max+1) - max/8 }
	for trial := 0; trial < 3000; trial++ {
		pool := Pool{MemoryMB: 1024 * dim(200), VCores: dim(150), Slots: dim(150)}
		n := 1 + r.Intn(25)
		reqs := make([]Request, n)
		held := Allocation{}
		for i := range reqs {
			reqs[i] = Request{
				JobID:    fmt.Sprintf("j%02d", r.Intn(40)),
				MemoryMB: 512 * r.Intn(5),
				VCores:   r.Intn(4),
				Pending:  r.Intn(80) - 2,
				Cap:      r.Intn(40) - 10,
			}
			if r.Intn(3) == 0 {
				held[reqs[i].JobID] = r.Intn(12) - 2
			}
		}
		plain := newFlatFill(pool, reqs, held)
		progressiveFill(plain.heap, n, plain.drfKey, plain.eligible, plain.grantOne)
		if got, want := DRF(pool, reqs, held), plain.allocation(true); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: pool %+v: level fill %v, heap fill %v", trial, pool, got, want)
		}
	}
}
