// Package shard is the horizontal scale-out layer: a consistent-hash
// router fronting N monoserve replicas, plus snapshot replication that
// propagates promoted models from a primary registry to every replica
// over the existing JSON /model endpoints with version-vector
// agreement.
//
// The paper's models are tiny immutable anchor sets (the model-size
// bounds reproduced in the Figure-1 golden test), which makes
// whole-model replication the natural distribution unit: every replica
// holds the complete model, so any replica can answer any request and
// the router's placement is purely a load-spreading and
// cache-affinity decision, never a correctness one. Correctness lives
// in the replication protocol instead — a replica is never observed
// serving a version older than one it has already acknowledged, and
// every served version resolves to a primary version through the
// syncer's version vector. See DESIGN.md §14.
package shard

import (
	"fmt"
	"math"
	"sort"

	"monoclass/internal/geom"
)

// pointKey hashes a point's coordinates with FNV-1a over the float64
// bit patterns. NaN payload bits are canonicalized so every NaN keys
// identically, matching the dominance semantics where every NaN
// behaves the same.
func pointKey(pt geom.Point) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range pt {
		b := math.Float64bits(c)
		if c != c { // NaN: canonical bits
			b = 0x7ff8000000000001
		}
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// stringKey is pointKey's sibling for endpoint/vnode labels.
func stringKey(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// ---------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------

// DefaultVNodes is the virtual-node count per replica: enough that the
// ring splits load within a few percent of even for small fleets,
// small enough that construction and the per-request walk stay
// trivial.
const DefaultVNodes = 64

// Ring is the router's placement: each replica owns VNodes
// pseudo-random positions on a uint64 ring; a request's point hashes
// to a position and walks clockwise, yielding replicas in first-
// encounter order. Adding or removing a replica moves only ~1/N of
// the key space, so cache affinity survives fleet changes. The router
// tries replicas in that order, preferring healthy ones, so the ring
// only decides affinity, never health. A Ring is immutable once
// built, so it is safe for concurrent use, and deterministic (same
// point, same order), so tests and the conformance check can predict
// placement.
type Ring struct {
	n     int
	nodes []ringNode // sorted by pos
}

type ringNode struct {
	pos uint64
	idx int
}

// NewRing builds a ring over n replicas with vnodes virtual nodes each
// (DefaultVNodes when vnodes <= 0). Vnode positions derive from the
// replica index, not the endpoint string, so two routers over the same
// fleet agree on placement regardless of how endpoints are spelled.
func NewRing(n, vnodes int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: ring needs at least 1 replica, got %d", n)
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{n: n, nodes: make([]ringNode, 0, n*vnodes)}
	for i := 0; i < n; i++ {
		for v := 0; v < vnodes; v++ {
			pos := stringKey(fmt.Sprintf("replica-%d#%d", i, v))
			r.nodes = append(r.nodes, ringNode{pos: pos, idx: i})
		}
	}
	sort.Slice(r.nodes, func(a, b int) bool {
		if r.nodes[a].pos != r.nodes[b].pos {
			return r.nodes[a].pos < r.nodes[b].pos
		}
		return r.nodes[a].idx < r.nodes[b].idx
	})
	return r, nil
}

// Order writes pt's preference order into dst (capacity ≥ the replica
// count avoids a reallocation) and returns it: every replica exactly
// once, in a clockwise walk from the point's hash position that
// collects each replica on first encounter.
func (r *Ring) Order(dst []int, pt geom.Point) []int {
	dst = dst[:0]
	key := pointKey(pt)
	start := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].pos >= key })
	var seen uint64 // replica bitset; fleets are far below 64 in practice
	var seenBig map[int]bool
	if r.n > 64 {
		seenBig = make(map[int]bool, r.n)
	}
	for step := 0; step < len(r.nodes) && len(dst) < r.n; step++ {
		node := r.nodes[(start+step)%len(r.nodes)]
		if seenBig != nil {
			if seenBig[node.idx] {
				continue
			}
			seenBig[node.idx] = true
		} else {
			if seen&(1<<uint(node.idx)) != 0 {
				continue
			}
			seen |= 1 << uint(node.idx)
		}
		dst = append(dst, node.idx)
	}
	return dst
}
