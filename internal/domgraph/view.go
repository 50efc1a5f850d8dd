package domgraph

import (
	"math"

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
// fallback per query. The build also leaves the points in
// lexicographic order behind (Order), which the d ≤ 2 chain
// decompositions walk instead of sorting again, and Build orders its
// per-dimension sweeps by the ranks instead of sorting each dimension.
type Implicit struct {
	pts    []geom.Point
	scalar bool
	rank   [][]int32 // [dim][point]; nil for zero-dimensional points
	order  []int32   // the points in (x1, …, xd, index) order
}

// rankRec is one radix-sort record: a rank key and its point.
type rankRec struct {
	key uint64
	idx int32
}

// rankKey maps x to a key whose unsigned order is cmp.Compare's order
// on float64: −0 folds into +0, and every NaN sits below −Inf.
func rankKey(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x)
	if b == 1<<63 { // −0
		b = 0
	}
	// Flip every bit of a negative value and the sign bit of the rest.
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// NewImplicit builds the rank arrays by a stable LSD radix sort on
// rankKey, 8-bit digits, in O(d·n) time plus 2 KiB of counters per
// digit: each dimension's keys and all eight digit histograms come
// from one sequential pass over the points, and a digit every key
// shares is skipped. The dimensions run last to first over one record
// array, so sorting dimension k keeps the (x(k+1), …, xd, index) order
// among equal keys and the final pass leaves the (x1, …, xd, index)
// order behind. Ranks and order are built on NaN input too, NaN
// ranking lowest as cmp.Compare orders it; Dominates then ignores
// them.
func NewImplicit(pts []geom.Point) *Implicit {
	v := &Implicit{pts: pts, scalar: scalarOnly(pts)}
	n := len(pts)
	if n == 0 || len(pts[0]) == 0 {
		return v
	}
	d := len(pts[0])
	recs, spare := make([]rankRec, n), make([]rankRec, n)
	for i := range recs {
		recs[i].idx = int32(i)
	}
	ranks := make([]int32, d*n)
	v.rank = make([][]int32, d)
	var hist [8][256]int32
	for k := d - 1; k >= 0; k-- {
		// spare holds the keys by point until the first scatter; the
		// records then pick theirs up in their current order.
		hist = [8][256]int32{}
		for i, p := range pts {
			key := rankKey(p[k])
			spare[i].key = key
			hist[0][byte(key)]++
			hist[1][byte(key>>8)]++
			hist[2][byte(key>>16)]++
			hist[3][byte(key>>24)]++
			hist[4][byte(key>>32)]++
			hist[5][byte(key>>40)]++
			hist[6][byte(key>>48)]++
			hist[7][byte(key>>56)]++
		}
		for p := range recs {
			recs[p].key = spare[recs[p].idx].key
		}
		for g := range hist {
			h := &hist[g]
			if h[byte(recs[0].key>>(8*g))] == int32(n) {
				continue
			}
			var sum int32
			for c, cnt := range h {
				h[c], sum = sum, sum+cnt
			}
			for _, r := range recs {
				c := byte(r.key >> (8 * g))
				spare[h[c]] = r
				h[c]++
			}
			recs, spare = spare, recs
		}
		rk := ranks[k*n : (k+1)*n : (k+1)*n]
		var r int32
		for p := range recs {
			if p > 0 && recs[p].key != recs[p-1].key {
				r++
			}
			rk[recs[p].idx] = r
		}
		v.rank[k] = rk
	}
	v.order = make([]int32, n)
	for p, rec := range recs {
		v.order[p] = rec.idx
	}
	return v
}

// Order returns the point indices in ascending lexicographic order of
// their coordinates under cmp.Compare (−0 equal to +0), ties by index.
// It is nil for zero-dimensional points. The caller must not modify
// it.
func (v *Implicit) Order() []int32 { return v.order }

// Rank returns dimension k's dense ranks by point: equal coordinates
// share a rank, and ranks ascend with the coordinate. The caller must
// not modify it.
func (v *Implicit) Rank(k int) []int32 { return v.rank[k] }

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
