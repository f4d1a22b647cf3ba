package fairshare

import (
	"math"
	"math/bits"

	"boedag/internal/cluster"
	"boedag/internal/units"
)

// memo remembers recent Allocate answers by their full input: the
// capacity vector and the consumer rows in order. A lookup matches only
// an entry whose input is equal field for field, not merely one with the
// same hash, and a hit hands back a copy of the stored answer, so it is
// the answer the solve would give. Its storage is flat — every entry's
// rows and answers back to back in slices allocated once, at their full
// size — and bounded: when an input no longer fits, the whole memo is
// emptied and refilled from that input on.
type memo struct {
	// slots is an open-addressed index over ents: entry number + 1, 0
	// for a free slot.
	slots []int32
	ents  []memoEntry
	rows  []Consumer
	rates []float64
	bns   []cluster.Resource
}

// memoEntry is one remembered solve: its input hash and capacity, where
// its rows and answer sit in the flat slices, and its utilization.
type memoEntry struct {
	hash     uint64
	capacity [cluster.NumResources]units.Rate
	off, n   int32
	util     [cluster.NumResources]float64
}

const (
	memoEntries = 64
	memoSlots   = 2 * memoEntries // a power of two: at most half full
	memoRows    = 512
	// memoMaxRows is the largest input looked up and remembered: a
	// larger one would push out much of what is there for one entry, and
	// large states rarely repeat.
	memoMaxRows = memoRows / 8
)

// memoHash hashes an Allocate input.
func memoHash(capacity [cluster.NumResources]units.Rate, consumers []Consumer) uint64 {
	h := uint64(len(consumers))
	for _, c := range capacity {
		h = mixWord(h, math.Float64bits(float64(c)))
	}
	for i := range consumers {
		c := &consumers[i]
		h = mixWord(h, uint64(c.Count))
		for _, d := range c.Demand {
			h = mixWord(h, math.Float64bits(d))
		}
		h = mixWord(h, math.Float64bits(c.MaxRate))
		h = mixWord(h, uint64(c.CapResource))
	}
	// SplitMix64's finalizer: every input bit reaches the low bits the
	// index probes with.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

func mixWord(h, w uint64) uint64 {
	h ^= w * 0x9e3779b97f4a7c15
	return bits.RotateLeft64(h, 31) * 0xbf58476d1ce4e5b9
}

// lookup returns the entry remembering exactly this input, or nil.
func (m *memo) lookup(h uint64, capacity [cluster.NumResources]units.Rate, consumers []Consumer) *memoEntry {
	if m.slots == nil {
		return nil
	}
	for s := h & (memoSlots - 1); m.slots[s] != 0; s = (s + 1) & (memoSlots - 1) {
		e := &m.ents[m.slots[s]-1]
		if e.hash != h || int(e.n) != len(consumers) || e.capacity != capacity {
			continue
		}
		rows := m.rows[e.off : e.off+e.n]
		same := true
		for i := range rows {
			if rows[i] != consumers[i] {
				same = false
				break
			}
		}
		if same {
			return e
		}
	}
	return nil
}

// insert remembers res as the answer to the input, which has at most
// memoMaxRows rows.
func (m *memo) insert(h uint64, capacity [cluster.NumResources]units.Rate, consumers []Consumer, res *Result) {
	n := len(consumers)
	if m.slots == nil {
		m.slots = make([]int32, memoSlots)
		m.ents = make([]memoEntry, 0, memoEntries)
		m.rows = make([]Consumer, 0, memoRows)
		m.rates = make([]float64, 0, memoRows)
		m.bns = make([]cluster.Resource, 0, memoRows)
	}
	if len(m.ents) == memoEntries || len(m.rows)+n > memoRows {
		m.reset()
	}
	off := len(m.rows)
	m.rows = append(m.rows, consumers...)
	m.rates = append(m.rates, res.Rate...)
	m.bns = append(m.bns, res.Bottleneck...)
	m.ents = append(m.ents, memoEntry{hash: h, capacity: capacity, off: int32(off), n: int32(n), util: res.Utilization})
	s := h & (memoSlots - 1)
	for m.slots[s] != 0 {
		s = (s + 1) & (memoSlots - 1)
	}
	m.slots[s] = int32(len(m.ents))
}

// reset forgets every entry and keeps the storage.
func (m *memo) reset() {
	clear(m.slots)
	m.ents = m.ents[:0]
	m.rows = m.rows[:0]
	m.rates = m.rates[:0]
	m.bns = m.bns[:0]
}
