// Package domgraph is the shared dominance kernel: a bit-packed
// representation of the pairwise dominance relation of a point set,
// 64 points per machine word, consumed by the super-linear stages of
// the pipeline — the Lemma 6 chain decomposition (internal/chains),
// the Theorem 4 passive min-cut network (internal/passive), and the
// violation count (internal/problem). The prepared problem builds it
// only while it decomposes and builds the network, then drops it;
// Implicit (view.go) answers the same dominance queries from
// per-dimension rank arrays where no matrix is built.
//
// The matrix numbers the points by SumLexOrder, a linear extension of
// dominance in which coordinate-equal points sit together in ascending
// index order: the point at position p is Order()[p]. In that
// numbering every edge of the chain-decomposition DAG (DominanceEdge:
// strict dominance, with duplicates chained up by index) runs from a
// position down to a lower one, so one strictly-lower-triangular bit
// relation holds the whole DAG: row p has ⌈p/64⌉ words, bit q set iff
// the DAG edge p → q. The closure ⪰ differs from the DAG only on the
// diagonal and inside runs of duplicate points, so the matrix keeps
// each position's run start beside the triangle and answers ⪰ from
// both. At n points the triangle takes about n²/16 bytes, a quarter of
// what a closure and a DAG relation held as full n×n bit matrices
// take.
//
// The builder never tests point pairs individually. Since
// p ⪰ q  ⇔  ∀k: p[k] >= q[k], the row of p is the word-wise AND over
// dimensions of the "coordinate-k at most p[k]" bitsets, cut to the
// positions below p. Each per-dimension bitset family is produced by
// one sweep over the points in ascending coordinate order, growing a
// running bitset, and each row ANDs only its own ⌈p/64⌉ words, so the
// triangle costs O(d·n²/128) word operations plus one comparator sort
// (SumLexOrder's numbering) and O(d·n) radix and counting passes that
// order the sweeps.
// Sweeps run in parallel across row blocks: a short sequential
// pre-pass snapshots the running bitset at block boundaries, then a
// GOMAXPROCS-sized worker pool replays each block independently.
// Every worker writes disjoint rows, so the build is race-free by
// construction.
//
// The matrix is defined for NaN-free points only: a NaN coordinate
// fails every comparison, so geom.Dominates makes a NaN point
// dominate, and be dominated by, points on either side of it in any
// order, and no triangle can hold that. problem.Prepare rejects NaN
// before it builds one; Implicit handles any input.
//
// On top of the packed rows the package offers word-level kernels:
// popcount-based violation counting and an O(k·n/64) antichain check.
package domgraph

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"monoclass/internal/geom"
)

// Matrix is the bit-packed dominance relation of one point set,
// numbered by SumLexOrder. It is immutable after Build and safe for
// concurrent readers.
type Matrix struct {
	n     int
	order []int32  // order[p]: the point at position p
	pos   []int32  // pos[i]: point i's position
	run   []int32  // run[p]: the first position of p's duplicate run
	tri   []uint64 // row p is tri[rowStart(p):rowStart(p+1)]; bit q set iff the DAG edge p → q
}

// rowStart returns the first word of triangle row p: the words of
// rows 0..p-1, Σ ⌈r/64⌉ over r < p, in closed form.
func rowStart(p int) int {
	c, e := (p+63)>>6, (p+63)&63
	return 32*c*(c-1) + c*e
}

// Footprint returns the triangle's bytes over n points, the quadratic
// part of a Matrix.
func Footprint(n int) int64 { return 8 * int64(rowStart(n)) }

// DominanceEdge is the single definition of the chain-decomposition
// DAG edge i -> j: point i strictly sits above point j under the
// dominance order, with coordinate-equal points ordered by index
// (higher index above lower) so duplicates form a chain rather than a
// cycle; the relation stays transitive. chains and the kernel builder
// both use exactly this rule.
func DominanceEdge(pts []geom.Point, i, j int) bool {
	if i == j {
		return false
	}
	if !geom.Dominates(pts[i], pts[j]) {
		return false
	}
	if pts[i].Equal(pts[j]) {
		return i > j
	}
	return true
}

// Height is p's coordinate sum with ±Inf coordinates clamped to
// ±MaxFloat64, so a point holding both infinities sums to a number,
// not NaN. Rounded floating-point addition is monotone, so p ⪰ q
// implies Height(p) ≥ Height(q) for NaN-free points.
func Height(p geom.Point) float64 {
	h := 0.0
	for _, x := range p {
		h += max(-math.MaxFloat64, min(x, math.MaxFloat64))
	}
	return h
}

// SumLexOrder returns point indices sorted into a linear extension of
// dominance: ascending Height, ties broken lexicographically, then by
// index. Coordinate-equal points have equal heights and equal
// lexicographic keys, so they sit together in ascending index order,
// and every DominanceEdge points from a later point to an earlier one.
// The matrix numbers its points by it; GreedyDecompose processes them
// in it.
func SumLexOrder(pts []geom.Point) []int {
	type keyed struct {
		sum float64
		idx int
	}
	recs := make([]keyed, len(pts))
	for i, p := range pts {
		recs[i] = keyed{Height(p), i}
	}
	slices.SortFunc(recs, func(a, b keyed) int {
		if c := cmp.Compare(a.sum, b.sum); c != 0 {
			return c
		}
		if c := slices.Compare(pts[a.idx], pts[b.idx]); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	order := make([]int, len(pts))
	for r, rec := range recs {
		order[r] = rec.idx
	}
	return order
}

// Build constructs the matrix with a worker pool sized to
// runtime.GOMAXPROCS. The points must be dimensionally consistent
// (geom.Dominates panics otherwise) and NaN-free (see the package
// comment).
func Build(pts []geom.Point) *Matrix {
	return build(pts, runtime.GOMAXPROCS(0))
}

// BuildNaive is the scalar reference builder: one DominanceEdge call
// (so one geom.Dominates call) per ordered pair, no bit-parallel
// sweeps, no concurrency. It tests the pairs above the diagonal too
// and panics if any DAG edge points up, so it also checks that the
// triangle loses nothing. It is the cross-check oracle for tests and
// the baseline for the kernel benchmarks.
func BuildNaive(pts []geom.Point) *Matrix {
	m := newMatrix(pts)
	for p := 0; p < m.n; p++ {
		row, i := m.row(p), int(m.order[p])
		for q := 0; q < m.n; q++ {
			if !DominanceEdge(pts, i, int(m.order[q])) {
				continue
			}
			if q >= p {
				panic(fmt.Sprintf("domgraph: DAG edge %d → %d points up the order", i, m.order[q]))
			}
			row[q>>6] |= 1 << uint(q&63)
		}
	}
	return m
}

// newMatrix numbers pts by SumLexOrder, marks the duplicate runs and
// allocates an empty triangle.
func newMatrix(pts []geom.Point) *Matrix {
	n := len(pts)
	m := &Matrix{
		n:     n,
		order: make([]int32, n),
		pos:   make([]int32, n),
		run:   make([]int32, n),
		tri:   make([]uint64, rowStart(n)),
	}
	for p, i := range SumLexOrder(pts) {
		m.order[p], m.pos[i], m.run[p] = int32(i), int32(p), int32(p)
		if p > 0 && pts[i].Equal(pts[m.order[p-1]]) {
			m.run[p] = m.run[p-1]
		}
	}
	return m
}

func (m *Matrix) row(p int) []uint64 { return m.tri[rowStart(p):rowStart(p+1)] }

// rowsPerBlock is the unit of parallel work: one block of rows per
// worker dispatch, with one boundary snapshot per block.
const rowsPerBlock = 256

func build(pts []geom.Point, workers int) *Matrix {
	m := newMatrix(pts)
	if m.n == 0 {
		return m
	}
	if len(pts[0]) == 0 {
		// Zero-dimensional points vacuously all dominate each other:
		// one duplicate run, every bit below the diagonal set.
		for p := 1; p < m.n; p++ {
			row := m.row(p)
			for w := range row {
				row[w] = ^uint64(0)
			}
			maskTail(row, p)
		}
		return m
	}
	m.fillTriangle(pts, max(workers, 1))
	return m
}

// maskTail clears the bits at and above position p in row p's last
// word.
func maskTail(row []uint64, p int) {
	if r := p & 63; r != 0 {
		row[len(row)-1] &= 1<<uint(r) - 1
	}
}

// parallelBlocks runs fn(block) for every block index on a worker
// pool. fn instances must touch disjoint data.
func parallelBlocks(numBlocks, workers int, fn func(blk int)) {
	if workers > numBlocks {
		workers = numBlocks
	}
	if workers <= 1 {
		for b := 0; b < numBlocks; b++ {
			fn(b)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				fn(b)
			}
		}()
	}
	for b := 0; b < numBlocks; b++ {
		next <- b
	}
	close(next)
	wg.Wait()
}

// fillTriangle fills the rows: for each dimension k, positions are
// visited in ascending k-coordinate order while a running bitset
// accumulates every position whose k-coordinate is at most the
// current one (ties included); the visit intersects the running bitset
// into the position's row, over the row's own words only. After all d
// sweeps row p holds exactly the positions below p that p dominates.
// Inside a duplicate run those are the run's lower positions, which
// hold lower indices: DominanceEdge's tiebreak, with no fix-up pass.
//
// The sweep order comes from NewImplicit's dense ranks, which compare
// as the coordinates do (−0 equal to +0) on the NaN-free points the
// matrix is defined on: one radix build for all d dimensions, then a
// counting sort by rank per dimension, with no comparator sort. The
// count also gives each visit its end: how many visits have a rank at
// most its own, which is how far the running bitset reaches.
func (m *Matrix) fillTriangle(pts []geom.Point, workers int) {
	n, words, d := m.n, (m.n+63)/64, len(pts[0])
	numBlocks := (n + rowsPerBlock - 1) / rowsPerBlock
	ranks := NewImplicit(pts)

	sweep := make([]int32, n) // sweep[s]: the position visited s-th
	ends := make([]int32, n)  // ends[s]: visits with a rank at most sweep[s]'s
	count := make([]int32, n) // per rank: its first visit, then one past its last
	run := make([]uint64, words)
	seeds := make([]uint64, numBlocks*words)
	ptrs := make([]int32, numBlocks)

	for k := 0; k < d; k++ {
		rk := ranks.Rank(k)
		clear(count)
		for _, i := range m.order {
			count[rk[i]]++
		}
		var sum int32
		for r, c := range count {
			count[r], sum = sum, sum+c
		}
		for p, i := range m.order {
			r := rk[i]
			sweep[count[r]] = int32(p)
			count[r]++
		}
		for s, p := range sweep {
			ends[s] = count[rk[m.order[p]]]
		}

		// Sequential pre-pass: replay the sweep cheaply (bit sets only)
		// to snapshot the running bitset and candidate pointer at each
		// block boundary.
		clear(run)
		var ptr int32
		for s := 0; s < n; s++ {
			if s%rowsPerBlock == 0 {
				b := s / rowsPerBlock
				copy(seeds[b*words:(b+1)*words], run)
				ptrs[b] = ptr
			}
			for ; ptr < ends[s]; ptr++ {
				q := sweep[ptr]
				run[q>>6] |= 1 << uint(q&63)
			}
		}

		// Parallel phase: each block replays its slice of the sweep
		// from the boundary snapshot and folds the running bitset into
		// its rows (copy and cut on the first dimension, AND
		// afterwards).
		parallelBlocks(numBlocks, workers, func(blk int) {
			local := make([]uint64, words)
			copy(local, seeds[blk*words:(blk+1)*words])
			ptr := ptrs[blk]
			for s := blk * rowsPerBlock; s < min((blk+1)*rowsPerBlock, n); s++ {
				for ; ptr < ends[s]; ptr++ {
					q := sweep[ptr]
					local[q>>6] |= 1 << uint(q&63)
				}
				p := int(sweep[s])
				row := m.row(p)
				if k == 0 {
					copy(row, local)
					if len(row) > 0 {
						maskTail(row, p)
					}
					continue
				}
				for w := range row {
					row[w] &= local[w]
				}
			}
		})
	}
}

// N returns the number of points.
func (m *Matrix) N() int { return m.n }

// Order returns the points in position order: Order()[p] is the point
// at position p. The slice aliases the matrix; callers must not modify
// it.
func (m *Matrix) Order() []int32 { return m.order }

// Position returns point i's position.
func (m *Matrix) Position(i int) int { return int(m.pos[i]) }

// Dominates reports pts[i] ⪰ pts[j] (reflexive; true in both
// directions for coordinate-equal points).
func (m *Matrix) Dominates(i, j int) bool {
	return m.DominatesAt(int(m.pos[i]), int(m.pos[j]))
}

// DominatesAt is Dominates over positions: whether the point at
// position a dominates the point at position b. Below the diagonal it
// reads the triangle; at or above it only a's own duplicate run
// qualifies.
func (m *Matrix) DominatesAt(a, b int) bool {
	if a > b {
		return m.tri[rowStart(a)+b>>6]>>(uint(b)&63)&1 == 1
	}
	return int(m.run[b]) <= a
}

// Edge reports the chain-DAG edge i -> j (see DominanceEdge).
func (m *Matrix) Edge(i, j int) bool {
	a, b := int(m.pos[i]), int(m.pos[j])
	return a > b && m.tri[rowStart(a)+b>>6]>>(uint(b)&63)&1 == 1
}

// DAGRows returns the triangle and its row offsets: row p, the DAG
// edges out of position p, is rows[off[p]:off[p+1]], ⌈p/64⌉ words.
// It is the adjacency matching.BitsetFromDAG adopts. rows aliases the
// matrix; callers must treat it as read-only.
func (m *Matrix) DAGRows() (rows []uint64, off []int) {
	off = make([]int, m.n+1)
	for p := range off {
		off[p] = rowStart(p)
	}
	return m.tri, off
}

// CountViolations counts ordered pairs (i, j) with pts[i] ⪰ pts[j],
// label(i) = 0 and label(j) = 1 — the popcount kernel behind
// geom.MonotoneViolations. Zero means a perfect monotone classifier
// exists. A pair with i above j in the order is a triangle bit; one
// with i below j lies inside a duplicate run, which is counted
// directly.
func (m *Matrix) CountViolations(labels []geom.Label) int {
	if len(labels) != m.n {
		panic(fmt.Sprintf("domgraph: %d labels for %d points", len(labels), m.n))
	}
	ones := make([]uint64, (m.n+63)/64)
	for p, i := range m.order {
		if labels[i] == geom.Positive {
			ones[p>>6] |= 1 << uint(p&63)
		}
	}
	count, zeros := 0, 0 // zeros: label-0 points so far in the current run
	for p, i := range m.order {
		if int(m.run[p]) == p {
			zeros = 0
		}
		switch labels[i] {
		case geom.Negative:
			for w, x := range m.row(p) {
				count += bits.OnesCount64(x & ones[w])
			}
			zeros++
		case geom.Positive:
			count += zeros
		}
	}
	return count
}

// IsAntichain reports whether the given point indices are pairwise
// incomparable, in O(len(idx) · n/64) word operations. Duplicate
// indices in idx make it trivially false (a point is comparable to
// itself through another slot).
func (m *Matrix) IsAntichain(idx []int) bool {
	mask := make([]uint64, (m.n+63)/64)
	for _, i := range idx {
		p := m.pos[i]
		if mask[p>>6]>>(uint(p)&63)&1 == 1 {
			return false
		}
		mask[p>>6] |= 1 << uint(p&63)
	}
	// Every comparable pair inside the set is a DAG edge from the later
	// member's row to the earlier one, so scanning each member's row
	// covers both orientations.
	for _, i := range idx {
		for w, x := range m.row(int(m.pos[i])) {
			if x&mask[w] != 0 {
				return false
			}
		}
	}
	return true
}

// Diff compares two matrices over the same points bit for bit and
// describes the first difference, or returns "" when they are
// identical. It is the differential-testing primitive the conformance
// harness uses to hold Build and BuildNaive to exact agreement.
func Diff(a, b *Matrix) string {
	if a.n != b.n {
		return fmt.Sprintf("point counts differ: %d vs %d", a.n, b.n)
	}
	for p := 1; p < a.n; p++ {
		for w, x := range a.row(p) {
			if y := b.row(p)[w]; x != y {
				i, j := int(a.order[p]), int(a.order[w<<6+bits.TrailingZeros64(x^y)])
				return fmt.Sprintf("dag bit (%d,%d): %v vs %v", i, j, a.Edge(i, j), b.Edge(i, j))
			}
		}
	}
	return ""
}
