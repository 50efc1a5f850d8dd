// Package classidx is the indexed anchor-classification engine: the
// serving-hot-path replacement for the linear anchor scan of
// classifier.AnchorSet. An Index is built once from an anchor
// antichain, is immutable afterwards, and is safe for any number of
// concurrent readers — exactly the lifecycle of a model snapshot in
// the hot-swap registry.
//
// Classification semantics are bit-for-bit those of the scalar scan
// (geom.Dominates over every anchor): a query x is positive iff for
// some anchor a, no coordinate of x is strictly below the matching
// coordinate of a. Note the form "!(x[k] < a[k])" rather than
// "x[k] >= a[k]": IEEE comparisons make the two differ on NaN inputs
// (a NaN query coordinate passes every anchor, because NaN < v is
// false), and the scalar oracle — which the conformance harness holds
// this package to — implements the first form. Anchor coordinates may
// be -Inf (the constant-positive classifier's bottom anchor) or +Inf;
// NaN anchor coordinates are normalized to -Inf at build time, which
// is observationally identical ("!(x < NaN)" and "!(x < -Inf)" are
// both always true).
//
// Three layouts cover the dimension spectrum (see DESIGN.md §10):
//
//   - d = 1: the pruned antichain is a single minimum, so Classify is
//     one comparison against that threshold.
//   - d = 2: anchors sorted by x form a staircase — the antichain
//     property makes y strictly decreasing — so one binary search on x
//     and one comparison on y decide the query.
//   - d >= 3: a bit-packed anchor matrix in the internal/domgraph
//     idiom. For every dimension k the anchors are sorted on
//     coordinate k and the prefix sets "anchors among the r smallest
//     in dimension k" are materialized as bitsets, 64 anchors per
//     word. A classify binary-searches each dimension for its rank,
//     then ANDs the d prefix rows word by word, early-exiting on the
//     first non-zero word (some anchor survived every dimension) or on
//     a zero rank (no anchor survives that dimension at all). Tiny
//     anchor sets (m <= tinyAnchors) skip the machinery for a flat
//     column-blocked scan that beats it on constant factors.
//
// The batch kernel (ClassifyBatchInto) checks the whole batch's
// dimensions once, then classifies point by point in the given order
// through the layout's own classify. It neither sorts nor allocates,
// and all its state is local.
package classidx

import (
	"fmt"
	"math"
	"sort"

	"monoclass/internal/geom"
	"monoclass/internal/skyline"
)

// tinyAnchors is the anchor count below which (for d >= 3) a flat scan
// beats the bit-matrix on constant factors; see BenchmarkTinyCrossover.
const tinyAnchors = 16

// layout discriminates the index representations.
type layout uint8

const (
	layoutEmpty layout = iota // no anchors: constant negative
	layout1D                  // single threshold
	layout2D                  // staircase
	layoutTiny                // flat scan, d >= 3, few anchors
	layoutBits                // prefix-bitset matrix, d >= 3
)

// Index is an immutable classification index over one anchor
// antichain. Build it once (NewAnchorSet does), then read from any
// number of goroutines.
type Index struct {
	dim  int
	m    int
	kind layout

	// layout1D: the smallest anchor coordinate.
	tau float64

	// layout2D: the staircase, xs strictly ascending, ys strictly
	// descending (parallel slices).
	xs, ys []float64

	// layoutTiny: anchors flattened row-major (m × dim), NaN→-Inf.
	flat []float64

	// layoutBits: per dimension, the anchor coordinates sorted
	// ascending and the (m+1) prefix bitsets laid out flat —
	// prefix[k][r*words : (r+1)*words] holds the anchors whose
	// dimension-k coordinate is among the r smallest (ties resolved by
	// sort position, but every run of equal coordinates is wholly
	// inside or outside a queried prefix because ranks come from
	// upper-bound searches).
	words  int
	coords [][]float64
	prefix [][]uint64
}

// Build constructs the index for anchors of dimension dim. The anchors
// should form an antichain (classifier.NewAnchorSet prunes before
// building); Build verifies the property where its layouts rely on it
// and re-prunes to the minimal antichain when handed a non-antichain,
// so the result always matches the scalar scan over the given anchors.
// The anchor slices are copied — the caller keeps ownership.
func Build(dim int, anchors []geom.Point) *Index {
	if dim <= 0 {
		panic(fmt.Sprintf("classidx: dimension %d must be positive", dim))
	}
	for i, a := range anchors {
		if len(a) != dim {
			panic(fmt.Sprintf("classidx: anchor %d has dimension %d, want %d", i, len(a), dim))
		}
	}
	ix := &Index{dim: dim, m: len(anchors)}
	if ix.m == 0 {
		ix.kind = layoutEmpty
		return ix
	}
	switch {
	case dim == 1:
		ix.build1D(anchors)
	case dim == 2:
		ix.build2D(anchors)
	case ix.m <= tinyAnchors:
		ix.buildTiny(anchors)
	default:
		ix.buildBits(anchors)
	}
	return ix
}

// Dim returns the dimensionality the index classifies.
func (ix *Index) Dim() int { return ix.dim }

// Anchors returns how many anchors the index holds (after any
// defensive re-pruning).
func (ix *Index) Anchors() int { return ix.m }

// normCoord maps NaN anchor coordinates to -Inf; the two are
// indistinguishable under the "!(x < a)" test.
func normCoord(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(-1)
	}
	return v
}

// build1D: the minimal anchors of a 1-D set collapse to the smallest
// value, so the whole index is one threshold. (Pruning makes this a
// single anchor, but Build tolerates unpruned input for free here.)
func (ix *Index) build1D(anchors []geom.Point) {
	ix.kind = layout1D
	ix.tau = normCoord(anchors[0][0])
	for _, a := range anchors[1:] {
		if v := normCoord(a[0]); v < ix.tau {
			ix.tau = v
		}
	}
}

// build2D lays the anchors out as a staircase: sorted by x ascending,
// an antichain has y strictly descending. If the sorted sequence is
// not strictly monotone the input was not an antichain (or contained
// duplicates / NaN-induced comparabilities); re-prune the normalized
// coordinates to their minimal points — which classify identically —
// and rebuild. The pruned set is always a strict staircase, so the
// recursion runs at most once.
func (ix *Index) build2D(anchors []geom.Point) {
	ix.kind = layout2D
	ix.m = len(anchors)
	ix.xs = make([]float64, len(anchors))
	ix.ys = make([]float64, len(anchors))
	order := make([]int, len(anchors))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := anchors[order[a]], anchors[order[b]]
		if xa, xb := normCoord(pa[0]), normCoord(pb[0]); xa != xb {
			return xa < xb
		}
		return normCoord(pa[1]) < normCoord(pb[1])
	})
	staircase := true
	for i, idx := range order {
		ix.xs[i] = normCoord(anchors[idx][0])
		ix.ys[i] = normCoord(anchors[idx][1])
		if i > 0 && (ix.xs[i] <= ix.xs[i-1] || ix.ys[i] >= ix.ys[i-1]) {
			staircase = false
		}
	}
	if !staircase {
		ix.build2D(normMinimal2D(anchors))
	}
}

// normMinimal2D prunes to minimal points under normalized (NaN→-Inf)
// coordinates. Normalizing first matters: a raw NaN behaves like -Inf
// as an anchor (right operand of the dominance comparison) but like
// +Inf as a left operand, so pruning un-normalized anchors could drop
// a non-redundant one.
func normMinimal2D(anchors []geom.Point) []geom.Point {
	norm := make([]geom.Point, len(anchors))
	for i, a := range anchors {
		norm[i] = geom.Point{normCoord(a[0]), normCoord(a[1])}
	}
	return skyline.Filter(norm, skyline.Minimal(norm))
}

// buildTiny flattens the anchors row-major for a cache-friendly scan.
func (ix *Index) buildTiny(anchors []geom.Point) {
	ix.kind = layoutTiny
	ix.flat = make([]float64, ix.m*ix.dim)
	for j, a := range anchors {
		for k, v := range a {
			ix.flat[j*ix.dim+k] = normCoord(v)
		}
	}
}

// buildBits materializes, per dimension, the sorted coordinates and
// all m+1 prefix bitsets, O(d·m²/64) words of memory and work.
func (ix *Index) buildBits(anchors []geom.Point) {
	ix.kind = layoutBits
	m, d := ix.m, ix.dim
	ix.words = (m + 63) / 64
	ix.coords = make([][]float64, d)
	ix.prefix = make([][]uint64, d)
	order := make([]int, m)
	for k := 0; k < d; k++ {
		for i := range order {
			order[i] = i
		}
		kk := k
		sort.Slice(order, func(a, b int) bool {
			return normCoord(anchors[order[a]][kk]) < normCoord(anchors[order[b]][kk])
		})
		cs := make([]float64, m)
		pre := make([]uint64, (m+1)*ix.words)
		for r, j := range order {
			cs[r] = normCoord(anchors[j][kk])
			row := pre[(r+1)*ix.words : (r+2)*ix.words]
			copy(row, pre[r*ix.words:(r+1)*ix.words])
			row[j>>6] |= 1 << uint(j&63)
		}
		ix.coords[k] = cs
		ix.prefix[k] = pre
	}
}

// prefixRow returns the bitset of anchors whose dimension-k coordinate
// is among the r smallest.
func (ix *Index) prefixRow(k, r int) []uint64 {
	return ix.prefix[k][r*ix.words : (r+1)*ix.words]
}

// rank returns how many anchors pass the dimension-k test for query
// coordinate x — the upper-bound position of x in the sorted
// coordinates, with NaN passing everything.
func (ix *Index) rank(k int, x float64) int {
	if math.IsNaN(x) {
		return ix.m
	}
	cs := ix.coords[k]
	lo, hi := 0, len(cs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cs[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Classify returns the label of p: positive iff p dominates some
// anchor. It panics on dimension mismatch, like the scalar scan.
func (ix *Index) Classify(p geom.Point) geom.Label {
	if len(p) != ix.dim {
		panic(fmt.Sprintf("classidx: Index(dim %d) applied to %d-dimensional point", ix.dim, len(p)))
	}
	switch ix.kind {
	case layoutEmpty:
		return geom.Negative
	case layout1D:
		return label(!(p[0] < ix.tau))
	case layout2D:
		return ix.classify2D(p)
	case layoutTiny:
		return ix.classifyTiny(p)
	default:
		return ix.classifyBits(p)
	}
}

// label converts a dominance verdict to a geom.Label.
func label(positive bool) geom.Label {
	if positive {
		return geom.Positive
	}
	return geom.Negative
}

// rank2D is the staircase upper bound: how many anchors pass the x
// test (NaN passes all).
func (ix *Index) rank2D(x float64) int {
	if math.IsNaN(x) {
		return len(ix.xs)
	}
	lo, hi := 0, len(ix.xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.xs[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// classify2D is the staircase test: the x rank picks the last anchor
// whose x passes, and that anchor's y — the lowest among them — decides.
func (ix *Index) classify2D(p geom.Point) geom.Label {
	r := ix.rank2D(p[0])
	return label(r > 0 && !(p[1] < ix.ys[r-1]))
}

// classifyTiny is the flat scan: the scalar loop over normalized
// coordinates, kept for small anchor counts where it wins on constant
// factors.
func (ix *Index) classifyTiny(p geom.Point) geom.Label {
	d := ix.dim
	for j := 0; j < ix.m; j++ {
		row := ix.flat[j*d : (j+1)*d]
		ok := true
		for k, a := range row {
			if p[k] < a {
				ok = false
				break
			}
		}
		if ok {
			return geom.Positive
		}
	}
	return geom.Negative
}

// classifyBits intersects the per-dimension prefix rows word by word.
// A rank of 0 in any dimension is an immediate negative; dimensions at
// full rank (every anchor passes — NaN queries, +Inf queries, -Inf
// anchor columns) drop out of the AND entirely.
func (ix *Index) classifyBits(p geom.Point) geom.Label {
	var rbuf [16][]uint64
	rows := rbuf[:0]
	if ix.dim > len(rbuf) {
		rows = make([][]uint64, 0, ix.dim)
	}
	for k := 0; k < ix.dim; k++ {
		r := ix.rank(k, p[k])
		if r == 0 {
			return geom.Negative
		}
		if r == ix.m {
			continue
		}
		rows = append(rows, ix.prefixRow(k, r))
	}
	return label(anyCommonBit(rows, ix.words))
}

// anyCommonBit reports whether the AND of the rows has any set bit;
// no rows means every anchor survived.
func anyCommonBit(rows [][]uint64, words int) bool {
	if len(rows) == 0 {
		return true
	}
	first := rows[0]
	for w := 0; w < words; w++ {
		v := first[w]
		for _, row := range rows[1:] {
			v &= row[w]
		}
		if v != 0 {
			return true
		}
	}
	return false
}
