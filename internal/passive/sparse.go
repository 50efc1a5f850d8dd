package passive

import (
	"fmt"
	"sort"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

// The flow network of Section 5.1 nominally contains one ∞-capacity
// edge per dominating pair (p, q) ∈ P0^con × P1^con — Θ(n²) edges on
// adversarial inputs, which dominates both memory and max-flow time.
// This file builds an equivalent sparse network: ∞ edges follow a
// chain decomposition of the contending points (consecutive links
// inside each chain, plus, for every point and every other chain, one
// link to the highest chain member it dominates). Two facts make the
// substitution exact:
//
//  1. soundness — every ∞ edge (a, b) added satisfies a ⪰ b, so any
//     source→sink path still witnesses a dominating pair
//     (label-0 point) ⪰ (label-1 point) by transitivity;
//  2. completeness — if a ⪰ b then b is reachable from a through ∞
//     edges: within a chain via consecutive links, across chains via
//     the binary-searched link plus the target chain's internal links
//     (the dominated set within a chain is always a prefix).
//
// Hence the two networks admit exactly the same source-sink cuts made
// of finite edges, and the min cut — which never uses ∞ edges
// (Lemma 18) — is unchanged. Edge count drops to O(n·w).
//
// The contending scan that precedes the edge build needs only each
// chain's extreme members: along an ascending chain every label-1
// member dominates the lowest one and the highest label-0 member
// dominates every other, so testing a point against those at most 2w
// points decides it in O(w·d) (see contendingPoints), O(n·w·d) in
// all. Both this and the prefix argument above need dominance to be a
// partial order, which is why geom.WeightedPoint.Validate rejects NaN
// coordinates.

// chainIndex locates points within a chain decomposition.
type chainIndex struct {
	dec     chains.Decomposition
	chainOf []int // chain id per point index
}

// buildChainIndex decomposes the points of ws into chains, or adopts
// the caller's decomposition after validating it.
func buildChainIndex(ws geom.WeightedSet, preset [][]int) chainIndex {
	pts := make([]geom.Point, len(ws))
	for i := range ws {
		pts[i] = ws[i].P
	}
	var dec chains.Decomposition
	if preset != nil {
		if err := chains.ValidateDecomposition(pts, preset); err != nil {
			panic(fmt.Sprintf("passive: supplied decomposition invalid: %v", err))
		}
		dec = chains.Decomposition{Chains: preset, Width: len(preset)}
	} else {
		dec = chains.Decompose(pts)
	}
	ci := chainIndex{dec: dec, chainOf: make([]int, len(ws))}
	for c, chain := range dec.Chains {
		for _, idx := range chain {
			ci.chainOf[idx] = c
		}
	}
	return ci
}

// contendingPoints computes the contending set of Section 5.1 in
// O(n·w·d) time from the extreme members of each chain. A chain
// ascends and dominance is transitive, so every label-1 member of a
// chain dominates the chain's lowest label-1 member, and the chain's
// highest label-0 member dominates every label-0 member below it.
// Hence a label-0 point dominates some label-1 point iff it dominates
// the lowest label-1 member of some chain, and a label-1 point is
// dominated by some label-0 point iff the highest label-0 member of
// some chain dominates it. This holds for any valid cover, minimum or
// not. The at most 2w extremes are copied into two flat coordinate
// arrays, which stay cache-resident for the whole scan.
func contendingPoints(ws geom.WeightedSet, ci *chainIndex) []bool {
	var lows, highs []float64 // per chain: lowest label-1, highest label-0 member
	for _, chain := range ci.dec.Chains {
		for _, idx := range chain {
			if ws[idx].Label == geom.Positive {
				lows = append(lows, ws[idx].P...)
				break
			}
		}
		for k := len(chain) - 1; k >= 0; k-- {
			if ws[chain[k]].Label == geom.Negative {
				highs = append(highs, ws[chain[k]].P...)
				break
			}
		}
	}
	out := make([]bool, len(ws))
	for i := range ws {
		p := ws[i].P
		if ws[i].Label == geom.Negative {
			out[i] = dominatesAny(p, lows)
		} else {
			out[i] = dominatedByAny(p, highs)
		}
	}
	return out
}

// dominatesAny reports whether p dominates one of the len(p)-dimensional
// points packed back to back in flat.
func dominatesAny(p geom.Point, flat []float64) bool {
	d := len(p)
next:
	for off := 0; off < len(flat); off += d {
		q := flat[off : off+d]
		for k, v := range p {
			if v < q[k] {
				continue next
			}
		}
		return true
	}
	return false
}

// dominatedByAny reports whether one of the len(p)-dimensional points
// packed back to back in flat dominates p.
func dominatedByAny(p geom.Point, flat []float64) bool {
	d := len(p)
next:
	for off := 0; off < len(flat); off += d {
		q := flat[off : off+d]
		for k, v := range p {
			if q[k] < v {
				continue next
			}
		}
		return true
	}
	return false
}

// sparseEdge is one ∞ edge of the sparsified reachability network.
type sparseEdge struct{ from, to int } // point indices

// sparseInfinityEdges emits the O(m·w) ∞ edges connecting the
// contending points so that reachability equals dominance restricted
// to the contending set.
func sparseInfinityEdges(ws geom.WeightedSet, ci *chainIndex, contending []bool) []sparseEdge {
	// Restrict each chain to its contending members, preserving order.
	restricted := make([][]int, len(ci.dec.Chains))
	for c, chain := range ci.dec.Chains {
		for _, idx := range chain {
			if contending[idx] {
				restricted[c] = append(restricted[c], idx)
			}
		}
	}
	var edges []sparseEdge
	// Consecutive links within each restricted chain (higher → lower).
	// Coordinate-equal neighbours dominate each other in *both*
	// directions, so they also get the forward link; without it a
	// label-0 point could not reach its label-1 duplicate.
	for _, chain := range restricted {
		for k := 1; k < len(chain); k++ {
			edges = append(edges, sparseEdge{from: chain[k], to: chain[k-1]})
			if ws[chain[k]].P.Equal(ws[chain[k-1]].P) {
				edges = append(edges, sparseEdge{from: chain[k-1], to: chain[k]})
			}
		}
	}
	// Cross-chain links: each contending point links to the highest
	// contending member it dominates in every other chain.
	for i := range ws {
		if !contending[i] {
			continue
		}
		p := ws[i].P
		home := ci.chainOf[i]
		for c, chain := range restricted {
			if c == home || len(chain) == 0 {
				continue
			}
			// Dominated contending members form a prefix.
			pre := sort.Search(len(chain), func(k int) bool {
				return !geom.Dominates(p, ws[chain[k]].P)
			})
			if pre > 0 {
				edges = append(edges, sparseEdge{from: i, to: chain[pre-1]})
			}
		}
	}
	return edges
}

// sparseInfinityEdgesMatrix is sparseInfinityEdges driven by the
// bit-packed dominance kernel instead of scalar geom.Dominates calls:
// the same transitive-reduction-style ∞-edge set (consecutive links
// inside each restricted chain, one cross-chain link to the highest
// dominated member, duplicate forward links), with every dominance and
// equality query answered by an O(1) bit test on the prebuilt matrix.
// The two builders emit exactly the same edge set; tests assert it.
func sparseInfinityEdgesMatrix(m *domgraph.Matrix, dec chains.Decomposition, contending []bool) []sparseEdge {
	chainOf := make([]int, m.N())
	restricted := make([][]int, len(dec.Chains))
	for c, chain := range dec.Chains {
		for _, idx := range chain {
			chainOf[idx] = c
			if contending[idx] {
				restricted[c] = append(restricted[c], idx)
			}
		}
	}
	var edges []sparseEdge
	// Consecutive links within each restricted chain (higher → lower),
	// plus the forward link between coordinate-equal neighbours (equal
	// points dominate each other in both directions; see the scalar
	// builder above).
	for _, chain := range restricted {
		for k := 1; k < len(chain); k++ {
			edges = append(edges, sparseEdge{from: chain[k], to: chain[k-1]})
			if m.Equal(chain[k], chain[k-1]) {
				edges = append(edges, sparseEdge{from: chain[k-1], to: chain[k]})
			}
		}
	}
	// Cross-chain links: the dominated members of an ascending chain
	// always form a prefix (transitivity), so a binary search over
	// O(1) bit lookups finds the highest one.
	for i := range contending {
		if !contending[i] {
			continue
		}
		home := chainOf[i]
		for c, chain := range restricted {
			if c == home || len(chain) == 0 {
				continue
			}
			pre := sort.Search(len(chain), func(k int) bool {
				return !m.Dominates(i, chain[k])
			})
			if pre > 0 {
				edges = append(edges, sparseEdge{from: i, to: chain[pre-1]})
			}
		}
	}
	return edges
}
