package chains

import (
	"fmt"
	"sort"

	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

// Decompose1D decomposes a totally ordered (1-D) point set: a single
// chain in ascending coordinate order, ties by index, with any one
// point as the maximum antichain.
func Decompose1D(pts []geom.Point) Decomposition {
	if len(pts) == 0 {
		return Decomposition{}
	}
	return decompose1D(domgraph.NewImplicit(pts))
}

func decompose1D(v *domgraph.Implicit) Decomposition {
	order := v.Order()
	chain := make([]int, len(order))
	for p, idx := range order {
		chain[p] = int(idx)
	}
	return Decomposition{Chains: [][]int{chain}, Width: 1, Antichain: []int{chain[0]}}
}

// Decompose2D computes a minimum chain decomposition of a 2-D point
// set in O(n log n) time by patience sorting, instead of the generic
// O(dn² + n^2.5) matching construction. Points are processed in
// (x asc, y asc, index asc) order; each goes to the leftmost pile
// whose top has y >= its own y (equivalently the classic patience
// rule on v = -y), so every pile is a dominance chain and exact
// duplicates sit in one pile in input order. The pile count equals
// the length of the longest strictly-decreasing-y subsequence — the
// maximum antichain — which back-pointers recover as the certificate.
func Decompose2D(pts []geom.Point) Decomposition {
	n := len(pts)
	if n == 0 {
		return Decomposition{}
	}
	if len(pts[0]) != 2 {
		panic(fmt.Sprintf("chains: Decompose2D on %d-dimensional points", len(pts[0])))
	}
	return decompose2D(domgraph.NewImplicit(pts))
}

// decompose2D is Decompose2D's patience pass over v's rank arrays: it
// walks v.Order(), the (x, y, index) order the radix build left
// behind, and compares y ranks, which order exactly as the y values
// do, so no sort and no float comparison remains.
func decompose2D(v *domgraph.Implicit) Decomposition {
	order, ry := v.Order(), v.Rank(1)
	var (
		piles [][]int                   // pile i = chain members in placement order
		tops  []int32                   // -(y rank) of each pile's top; ascending across piles
		ptr   = make([]int, len(order)) // back-pointer to a point on the previous pile, or -1
	)
	for _, i32 := range order {
		idx := int(i32)
		y := -ry[idx]
		// Leftmost pile whose top >= y.
		lo, hi := 0, len(tops)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if tops[mid] < y {
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
		tops[lo] = y
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
