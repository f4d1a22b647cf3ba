// Package fleet shards the prediction service across replicated boedagd
// nodes. Each node owns a slice of PlanKey space via a consistent-hash
// ring; a request landing on a non-owner is forwarded — one hop, bounded
// retries with backoff along the fallback-owner sequence — to the node
// whose response cache owns the scenario, so a fleet of N nodes holds one
// logical cache instead of N overlapping ones. When every peer is
// unreachable the receiving node degrades to computing locally: fleet
// mode can only add availability, never remove it.
package fleet

import (
	"fmt"
	"sort"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	// DefaultVirtualNodes is how many ring points each node projects.
	// More points smooth the key distribution; 128 keeps the per-node
	// share within a few percent of uniform for small fleets.
	DefaultVirtualNodes = 128
)

func fnv64a(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// ringHash places a label on the circle: FNV-64a for the digest, then a
// splitmix64-style finalizer for avalanche — raw FNV of near-identical
// labels ("node0#1", "node0#2", …) clusters badly on the circle, and a
// clustered ring concentrates load on whichever node the gaps favor.
func ringHash(s string) uint64 {
	x := fnv64a(s)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Ring is an immutable consistent-hash ring over node IDs. Every node
// projects vnodes points onto the 64-bit circle; a key belongs to the
// node owning the first point at or after the key's hash. Because a
// node's points depend only on its own ID, adding or removing a node
// moves only the keys adjacent to that node's points — the minimal-
// disruption property TestRingRebalance pins.
type Ring struct {
	nodes  []string
	points []point // sorted by hash
}

type point struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given node IDs with vnodes points per
// node (DefaultVirtualNodes when <= 0). Node IDs must be unique and
// non-empty.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]point, 0, len(nodes)*vnodes),
	}
	for _, id := range nodes {
		if id == "" {
			return nil, fmt.Errorf("fleet: empty node ID")
		}
		if seen[id] {
			return nil, fmt.Errorf("fleet: duplicate node ID %q", id)
		}
		seen[id] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash: ringHash(fmt.Sprintf("%s#%d", id, v)),
				node: id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical hashes (astronomically rare) tie-break by node ID so
		// every replica sorts the ring identically.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Owners returns up to n distinct nodes for key: the owner first, then
// the fallback sequence walking the ring clockwise — the same order every
// replica computes, so retries converge on the same fallback.
func (r *Ring) Owners(key string, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		node := r.points[(start+i)%len(r.points)].node
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}

// search returns the index of the first point at or after key's hash,
// wrapping past the top of the circle.
func (r *Ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
