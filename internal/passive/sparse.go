package passive

import (
	"cmp"
	"slices"

	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

// The flow network of Section 5.1 nominally contains one ∞-capacity
// edge per dominating pair (p, q) ∈ P0^con × P1^con — Θ(n²) edges on
// adversarial inputs, which dominates both memory and max-flow time.
// Prepare builds an equivalent sparse network instead, over a chain
// cover of the points. Each chain is split by label: its contending
// label-0 members and its contending label-1 members, each half in the
// chain's ascending order. Both halves are linked downward, higher →
// lower, and each label-0 point emits cross links to label-1 halves
// only (infinityEdges). Three facts make the substitution exact:
//
//  1. soundness — every ∞ edge (a, b) satisfies a ⪰ b: chain links
//     join members of one ascending chain, and a cross link goes to a
//     point its source dominates. Reachability therefore implies
//     dominance.
//  2. completeness from label 0 to label 1 — if a label-0 point p
//     dominates a label-1 point q, then q is reachable from p. Let q
//     sit in the label-1 half of chain c. The members of that half p
//     dominates form a prefix, and p reaches the prefix's top t: p
//     links to t itself, or, by induction down p's label-0 half, the
//     label-0 point below p has the same prefix, already reaches t,
//     and is p's chain link. From t the half's chain links descend
//     through q.
//  3. the same minimum cuts — a cut of finite edges is an assignment
//     of the contending points (source side ↦ 0), and an ∞ edge
//     (a, b) forbids a ↦ 0 with b ↦ 1. The literal network forbids
//     that only for label-0 a ⪰ label-1 b, full monotonicity for
//     every a ⪰ b, and by facts 1 and 2 this network's constraints
//     sit between the two. Every minimum cut of the literal network
//     is already monotone: with positive weights, a label-1 point
//     assigned 0 is dominated by some label-0 point assigned 0, and a
//     label-0 point assigned 1 dominates some label-1 point assigned
//     1, since otherwise flipping it back to its own label is
//     feasible and cheaper. A violation a ⪰ b would then extend to a
//     forbidden label-0 ⪰ label-1 pair. So the three networks have
//     exactly the same minimum cuts, and the one Resolve decodes —
//     the residual source side, the minimal one — is unchanged, and
//     with it WErr, the assignment and the anchors.
//
// Edge bound: over k chains holding m contending points, at most m
// chain links (|a₀|−1 + |a₁|−1 per chain a) and, per ordered pair of
// chains (a, c) with c = a included, at most min(|a₀|, |c₁|) cross
// links — each marks both a label-0 member of a and a step of the
// prefix pointer in c's label-1 half.
//
// Lookup bound: the builder walks each pair of a label-0 half a₀ and a
// label-1 half c₁ once. One lookup, top(a₀) ⪰ bottom(c₁), rules the
// pair out when it fails: any a₀ member dominating any c₁ member would
// make the top dominate the bottom. A pair that passes and emits L
// links costs at most |c₁| lookups advancing its c₁ pointer (one
// success per member passed beyond a link's first, at most one
// failure per link) plus at most
// 2·⌊log₂|a₀|⌋ + 2 per gallop up a₀, of which there are at most
// L + 1. A walk that probes every label-1 half from every label-0
// point spends at least m₀·k₁ lookups over m₀ contending label-0
// points and k₁ label-1 halves; on planted noisy d=3 sets of 8192
// points the galloping walk asks about a third of that.
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
// arrays, which stay cache-resident for the whole scan, lowest
// members by ascending domgraph.Height and highest ones by descending:
// a point dominates only points no higher than itself, so each scan
// tries the likeliest extremes first and stops at the first one out of
// reach, whatever order the cover lists its chains in.
func contendingPoints(ws geom.WeightedSet, cover [][]int) []bool {
	type extreme struct {
		height float64
		p      geom.Point
	}
	var lows, highs []extreme // per chain: lowest label-1, highest label-0 member
	for _, chain := range cover {
		for _, idx := range chain {
			if p := ws[idx].P; ws[idx].Label == geom.Positive {
				lows = append(lows, extreme{domgraph.Height(p), p})
				break
			}
		}
		for k := len(chain) - 1; k >= 0; k-- {
			if p := ws[chain[k]].P; ws[chain[k]].Label == geom.Negative {
				highs = append(highs, extreme{domgraph.Height(p), p})
				break
			}
		}
	}
	slices.SortFunc(lows, func(a, b extreme) int { return cmp.Compare(a.height, b.height) })
	slices.SortFunc(highs, func(a, b extreme) int { return cmp.Compare(b.height, a.height) })
	flatten := func(es []extreme) (flat, heights []float64) {
		for _, e := range es {
			flat, heights = append(flat, e.p...), append(heights, e.height)
		}
		return flat, heights
	}
	lowFlat, lowHeights := flatten(lows)
	highFlat, highHeights := flatten(highs)
	out := make([]bool, len(ws))
	for i := range ws {
		p := ws[i].P
		if ws[i].Label == geom.Negative {
			out[i] = dominatesAny(p, lowFlat, lowHeights)
		} else {
			out[i] = dominatedByAny(p, highFlat, highHeights)
		}
	}
	return out
}

// dominatesAny reports whether p dominates one of the len(p)-dimensional
// points packed back to back in flat, whose heights ascend.
func dominatesAny(p geom.Point, flat, heights []float64) bool {
	d, h := len(p), domgraph.Height(p)
next:
	for j, hq := range heights {
		if hq > h {
			return false
		}
		q := flat[j*d : j*d+d]
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
// packed back to back in flat, whose heights descend, dominates p.
func dominatedByAny(p geom.Point, flat, heights []float64) bool {
	d, h := len(p), domgraph.Height(p)
next:
	for j, hq := range heights {
		if hq < h {
			return false
		}
		q := flat[j*d : j*d+d]
		for k, v := range p {
			if q[k] < v {
				continue next
			}
		}
		return true
	}
	return false
}

// infinityEdges emits the ∞ edges (point indices, from ⪰ to) over the
// m contending points, so that the contending label-1 points each
// contending label-0 point reaches are exactly those it dominates,
// asking view for every dominance test.
//
// Each chain of cover is split into its contending label-0 and
// label-1 halves; empty halves drop out. Every half gets its chain
// links, higher → lower. Then each label-0 point emits one cross link
// per label-1 half, its own chain's included, to the highest member it
// dominates there — but only where that member differs from the one
// the label-0 point below it reached; otherwise that point reaches the
// same top (see the header). Label-1 points emit no cross links. A
// coordinate-equal label-1 neighbour above a label-0 point needs no
// link of its own: it lies in the point's own-chain prefix.
//
// The links of one (label-0 half a₀, label-1 half c₁) pair come from a
// walk over both halves. Along the ascending a₀, the members of c₁ a
// point dominates form a growing prefix, and each member of c₁ is
// dominated by an upward-closed suffix of a₀. So one lookup,
// top(a₀) ⪰ bottom(c₁), rules the whole pair out when it fails.
// Otherwise the walk gallops up a₀ (doubling steps, then bisection) to
// the first member that dominates the next member of c₁ not yet
// reached, advances c₁'s pointer past everything that member
// dominates, emits the link to the last of those, and repeats from
// the member above: O(log |a₀|) lookups per link found, not one per
// member of a₀ (the header's lookup bound). Links come out pair by
// pair as the walk finds them; no caller depends on the edge order,
// since the minimal minimum cut Resolve decodes is the same whatever
// order the network's edges were added in.
//
// A dense Matrix stores its relation by position, so over a matrix
// the halves hold positions, looked up once per member, and the walk
// asks DominatesAt instead of paying the translation on each of its
// lookups; links map back to point indices as they are emitted. Every
// view answers the same lookups the same way, so every view emits the
// same edges in the same order.
func infinityEdges(view domgraph.View, ws geom.WeightedSet, cover [][]int, contending []bool, m int, emit func(from, to int)) {
	dominates, key, index := view.Dominates, func(i int) int { return i }, func(k int) int { return k }
	if mat, ok := view.(*domgraph.Matrix); ok {
		order := mat.Order()
		dominates, key, index = mat.DominatesAt, mat.Position, func(p int) int { return int(order[p]) }
	}
	flat := make([]int, 0, m) // the halves' members as view keys; never reallocated
	var halves [2][][]int     // per label: the chains' non-empty halves
	for _, chain := range cover {
		for _, label := range [...]geom.Label{geom.Negative, geom.Positive} {
			start, below := len(flat), -1
			for _, idx := range chain {
				if contending[idx] && ws[idx].Label == label {
					if below >= 0 {
						emit(idx, below)
					}
					flat = append(flat, key(idx))
					below = idx
				}
			}
			if half := flat[start:]; len(half) > 0 {
				halves[label] = append(halves[label], half)
			}
		}
	}
	for _, zero := range halves[geom.Negative] {
		top := zero[len(zero)-1]
		for _, one := range halves[geom.Positive] {
			if !dominates(top, one[0]) {
				continue
			}
			for pos, p := 0, 0; p < len(one); pos++ {
				if pos = gallop(dominates, zero, pos, one[p]); pos == len(zero) {
					break
				}
				p++
				for p < len(one) && dominates(zero[pos], one[p]) {
					p++
				}
				emit(index(zero[pos]), index(one[p-1]))
			}
		}
	}
}

// gallop returns the first position at or after from whose member of
// the ascending half dominates target, or len(half) if none does. The
// members that dominate target form a suffix of the half, so it probes
// from, from+1, from+3, from+7, … and bisects the last gap: O(log g)
// lookups for an answer g positions up.
func gallop(dominates func(a, b int) bool, half []int, from, target int) int {
	lo, hi := from, from // every position below lo fails
	for step := 1; hi < len(half) && !dominates(half[hi], target); step *= 2 {
		lo = hi + 1
		hi += step
	}
	hi = min(hi, len(half))
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); dominates(half[mid], target) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
