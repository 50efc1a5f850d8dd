package chains

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"monoclass/internal/geom"
)

// Decompose1D decomposes a totally ordered (1-D) point set: a single
// chain sorted by coordinate, with any one point as the maximum
// antichain.
func Decompose1D(pts []geom.Point) Decomposition {
	n := len(pts)
	if n == 0 {
		return Decomposition{}
	}
	chain := make([]int, n)
	for i := range chain {
		chain[i] = i
	}
	sort.Slice(chain, func(a, b int) bool { return pts[chain[a]][0] < pts[chain[b]][0] })
	return Decomposition{Chains: [][]int{chain}, Width: 1, Antichain: []int{chain[0]}}
}

// Decompose2D computes a minimum chain decomposition of a 2-D point
// set in O(n log n) time by patience sorting, instead of the generic
// O(dn² + n^2.5) matching construction. Points are processed in
// (x asc, y asc) order; each goes to the leftmost pile whose top has
// y >= its own y (equivalently the classic patience rule on v = -y),
// so every pile is a dominance chain. The pile count equals the length
// of the longest strictly-decreasing-y subsequence — the maximum
// antichain — which back-pointers recover as the certificate.
func Decompose2D(pts []geom.Point) Decomposition {
	n := len(pts)
	if n == 0 {
		return Decomposition{}
	}
	if len(pts[0]) != 2 {
		panic(fmt.Sprintf("chains: Decompose2D on %d-dimensional points", len(pts[0])))
	}
	// Sort contiguous (x, y, index) records rather than an index slice
	// that chases pts on every comparison; exact duplicates fall back
	// to input order, so the piles do not depend on the sort algorithm.
	type xyIdx struct {
		x, y float64
		i    int
	}
	order := make([]xyIdx, n)
	for i, p := range pts {
		order[i] = xyIdx{p[0], p[1], i}
	}
	slices.SortFunc(order, func(a, b xyIdx) int {
		if c := cmp.Compare(a.x, b.x); c != 0 {
			return c
		}
		if c := cmp.Compare(a.y, b.y); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})

	var (
		piles [][]int          // pile i = chain members in placement order
		tops  []float64        // v = -y of each pile's top; ascending across piles
		ptr   = make([]int, n) // back-pointer to a point on the previous pile, or -1
	)
	for _, r := range order {
		idx, v := r.i, -r.y
		// Leftmost pile whose top >= v.
		lo, hi := 0, len(tops)
		for lo < hi {
			mid := (lo + hi) / 2
			if tops[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(tops) {
			piles = append(piles, nil)
			tops = append(tops, 0)
		}
		if lo > 0 {
			prev := piles[lo-1]
			ptr[idx] = prev[len(prev)-1]
		} else {
			ptr[idx] = -1
		}
		piles[lo] = append(piles[lo], idx)
		tops[lo] = v
	}

	// Antichain: walk back-pointers from the top of the last pile.
	anti := make([]int, 0, len(piles))
	last := piles[len(piles)-1]
	for cur := last[len(last)-1]; cur != -1; cur = ptr[cur] {
		anti = append(anti, cur)
	}
	if len(anti) != len(piles) {
		panic(fmt.Sprintf("chains: antichain walk length %d != pile count %d", len(anti), len(piles)))
	}
	sort.Ints(anti)
	return Decomposition{Chains: piles, Width: len(piles), Antichain: anti}
}
