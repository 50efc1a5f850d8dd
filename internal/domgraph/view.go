package domgraph

import (
	"cmp"
	"math"
	"slices"

	"monoclass/internal/geom"
)

// View answers dominance queries over an indexed point set — the one
// question the Theorem 4 network builder (passive.Prepare) asks — so
// the builder runs against a dense Matrix or a rank-array Implicit
// view without caring which. Both answer geom.Dominates(pts[i],
// pts[j]), reflexively (bit (i,i) is always set): Implicit for any
// input, NaN coordinates and zero-dimensional points included, and
// Matrix for the NaN-free input it is defined on.
//
// All implementations are safe for concurrent readers.
type View interface {
	// Dominates reports pts[i] ⪰ pts[j] (reflexive).
	Dominates(i, j int) bool
}

// scalarOnly reports whether rank comparisons are unusable for the
// point set: NaN coordinates have no place in a sorted order (a NaN
// coordinate fails every comparison, so geom.Dominates ignores it in
// both directions, and an all-NaN point dominates, and is dominated
// by, every point), and zero-dimensional points have no coordinate to
// rank. Views fall back to per-pair geom.Dominates.
func scalarOnly(pts []geom.Point) bool {
	if len(pts) > 0 && len(pts[0]) == 0 {
		return true
	}
	for _, p := range pts {
		for _, x := range p {
			if math.IsNaN(x) {
				return true
			}
		}
	}
	return false
}

// Implicit answers dominance queries from per-dimension rank arrays
// without materializing any bitset: O(d·n) int32 words of memory
// total, O(d) per Dominates query. Ranks are dense over the sorted
// distinct values of each dimension, so rank[k][i] >= rank[k][j] ⇔
// pts[i][k] >= pts[j][k] including ties and ±Inf; point sets
// containing NaN (or zero-dimensional points) drop to the scalar
// fallback per query.
type Implicit struct {
	pts    []geom.Point
	scalar bool
	rank   [][]int32 // [dim][point], nil when scalar
}

// NewImplicit builds the rank arrays in O(d·n log n).
func NewImplicit(pts []geom.Point) *Implicit {
	v := &Implicit{pts: pts}
	if scalarOnly(pts) {
		v.scalar = true
		return v
	}
	if len(pts) == 0 {
		return v
	}
	d := len(pts[0])
	v.rank = make([][]int32, d)
	// Contiguous (value, index) records sort without chasing pts on
	// every comparison; ties may land in any order, since equal values
	// share a rank.
	type valIdx struct {
		v float64
		i int32
	}
	order := make([]valIdx, len(pts))
	for k := 0; k < d; k++ {
		for i, p := range pts {
			order[i] = valIdx{p[k], int32(i)}
		}
		slices.SortFunc(order, func(a, b valIdx) int { return cmp.Compare(a.v, b.v) })
		rk := make([]int32, len(pts))
		r := int32(0)
		for pos, e := range order {
			if pos > 0 && e.v != order[pos-1].v {
				r++
			}
			rk[e.i] = r
		}
		v.rank[k] = rk
	}
	return v
}

// Dominates reports pts[i] ⪰ pts[j] via rank comparisons.
func (v *Implicit) Dominates(i, j int) bool {
	if i == j {
		return true
	}
	if v.scalar {
		return geom.Dominates(v.pts[i], v.pts[j])
	}
	for _, rk := range v.rank {
		if rk[i] < rk[j] {
			return false
		}
	}
	return true
}
