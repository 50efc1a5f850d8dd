package passive

import (
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

// The flow network of Section 5.1 nominally contains one ∞-capacity
// edge per dominating pair (p, q) ∈ P0^con × P1^con — Θ(n²) edges on
// adversarial inputs, which dominates both memory and max-flow time.
// Prepare builds an equivalent sparse network instead: ∞ edges follow
// a chain cover of the contending points (consecutive links inside
// each chain, plus cross links from a point to the highest member it
// dominates in another chain, wherever its own chain link does not
// already reach that member). Two facts make the substitution exact:
//
//  1. soundness — every ∞ edge (a, b) added satisfies a ⪰ b, so any
//     source→sink path still witnesses a dominating pair
//     (label-0 point) ⪰ (label-1 point) by transitivity;
//  2. completeness — if a ⪰ b then b is reachable from a through ∞
//     edges: within a chain via consecutive links, across chains via
//     a cross link from a or a point below it in its chain, plus the
//     target chain's internal links (the dominated members of a chain
//     always form a prefix).
//
// Hence the two networks admit exactly the same source-sink cuts made
// of finite edges, and the min cut — which never uses ∞ edges
// (Lemma 18) — is unchanged. Each ordered pair of chains (a, c) holds
// at most min(|a|, |c|) cross links, so the m contending points in k
// chains need at most 2m consecutive and Σ min(|a|, |c|) ≤ (k−1)·m
// cross links.
//
// The contending scan that precedes the edge build needs only each
// chain's extreme members: along an ascending chain every label-1
// member dominates the lowest one and the highest label-0 member
// dominates every other, so testing a point against those at most 2w
// points decides it in O(w·d) (see contendingPoints), O(n·w·d) in
// all. Both this and the prefix argument above need dominance to be a
// partial order, which is why geom.WeightedPoint.Validate rejects NaN
// coordinates.

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
func contendingPoints(ws geom.WeightedSet, cover [][]int) []bool {
	var lows, highs []float64 // per chain: lowest label-1, highest label-0 member
	for _, chain := range cover {
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

// infinityEdges emits the ∞ edges (point indices, from ⪰ to) that
// connect the m contending points so that reachability equals
// dominance restricted to them, asking view for every dominance test.
//
// Each chain of cover is restricted to its contending members, and
// chains left empty drop out. Then, chain by chain in ascending order,
// each point emits its consecutive link and its cross links. The
// members of another chain c that a point dominates form a prefix of
// c, and that prefix only grows as the point's own chain ascends, so
// one pointer per other chain advances monotonically: the pair of
// chains (a, c) costs at most |a|+|c| lookups, and the k ≤ m non-empty
// chains at most 2·(k−1)·m in all. A point links to the top of its
// prefix of c only when the pointer advanced. Otherwise the point
// below it in chain a has the same prefix, and by induction down the
// chain already reaches its top, so the consecutive link implies the
// cross link. Each link then marks a step of the pointer and a member
// of a: at most min(|a|, |c|) per pair.
func infinityEdges(view domgraph.View, cover [][]int, contending []bool, m int, emit func(from, to int)) {
	flat := make([]int, 0, m)
	var restricted [][]int
	for _, chain := range cover {
		start := len(flat)
		for _, idx := range chain {
			if contending[idx] {
				flat = append(flat, idx)
			}
		}
		if len(flat) > start {
			restricted = append(restricted, flat[start:])
		}
	}
	prefix := make([]int, len(restricted)) // per other chain: dominated prefix length
	for a, chain := range restricted {
		clear(prefix)
		for k, i := range chain {
			if k > 0 {
				// Consecutive link, higher → lower. Coordinate-equal
				// neighbours dominate each other in both directions, so
				// they also get the forward link; without it a label-0
				// point could not reach its label-1 duplicate.
				lower := chain[k-1]
				emit(i, lower)
				if view.Dominates(lower, i) {
					emit(lower, i)
				}
			}
			for c, other := range restricted {
				if c == a {
					continue
				}
				p := prefix[c]
				for p < len(other) && view.Dominates(i, other[p]) {
					p++
				}
				if p > prefix[c] {
					emit(i, other[p-1])
					prefix[c] = p
				}
			}
		}
	}
}
