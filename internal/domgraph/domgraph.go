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
// Two relations are materialized side by side:
//
//   - the raw closure ⪰ ("dom"): bit j of row i is set iff
//     pts[i] ⪰ pts[j], including i == j (a point dominates itself) and
//     both directions for coordinate-equal points;
//   - the DAG relation ("dag"): the strict order used for chain
//     decomposition, where coordinate-equal points are ordered by index
//     (see DominanceEdge) so duplicates chain up instead of forming
//     cycles, and self-loops are excluded.
//
// The builder never tests point pairs individually. Since
// p ⪰ q  ⇔  ∀k: p[k] >= q[k], the closure row of p is the word-wise
// AND over dimensions of the "coordinate-k at most p[k]" bitsets.
// Each per-dimension bitset family is produced by one sweep over the
// points in ascending coordinate order, growing a running bitset, so
// the whole closure costs O(d·n²/64) word operations plus d sorts —
// 64 pairs per instruction instead of one geom.Dominates call per
// pair. Sweeps run in parallel across row blocks: a short sequential
// pre-pass snapshots the running bitset at block boundaries, then a
// GOMAXPROCS-sized worker pool replays each block independently.
// Every worker writes disjoint rows, so the build is race-free by
// construction.
//
// On top of the packed rows the package offers word-level kernels:
// popcount-based violation counting and an O(k·n/64) antichain check.
package domgraph

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"monoclass/internal/geom"
)

// Matrix is the bit-packed dominance relation of one point set. It is
// immutable after Build and safe for concurrent readers.
type Matrix struct {
	n     int
	words int // words per row: ceil(n/64)
	dom   []uint64
	dag   []uint64
}

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

// Build constructs the matrix with a worker pool sized to
// runtime.GOMAXPROCS. The points must be dimensionally consistent
// (geom.Dominates panics otherwise).
func Build(pts []geom.Point) *Matrix {
	return build(pts, runtime.GOMAXPROCS(0))
}

// BuildNaive is the scalar reference builder: one geom.Dominates call
// per ordered pair, no bit-parallel sweeps, no concurrency. It is the
// cross-check oracle for tests and the baseline for the kernel
// benchmarks.
func BuildNaive(pts []geom.Point) *Matrix {
	n := len(pts)
	m := newMatrix(n)
	for i := 0; i < n; i++ {
		domRow := m.dom[i*m.words : (i+1)*m.words]
		dagRow := m.dag[i*m.words : (i+1)*m.words]
		for j := 0; j < n; j++ {
			if i == j {
				domRow[j>>6] |= 1 << uint(j&63)
				continue
			}
			if !geom.Dominates(pts[i], pts[j]) {
				continue
			}
			domRow[j>>6] |= 1 << uint(j&63)
			if DominanceEdge(pts, i, j) {
				dagRow[j>>6] |= 1 << uint(j&63)
			}
		}
	}
	return m
}

func newMatrix(n int) *Matrix {
	m := &Matrix{n: n, words: (n + 63) / 64}
	m.dom = make([]uint64, n*m.words)
	m.dag = make([]uint64, n*m.words)
	return m
}

// rowsPerBlock is the unit of parallel work: one block of rows per
// worker dispatch, with one boundary snapshot per block.
const rowsPerBlock = 256

func build(pts []geom.Point, workers int) *Matrix {
	n := len(pts)
	m := newMatrix(n)
	if n == 0 {
		return m
	}
	if workers < 1 {
		workers = 1
	}
	if len(pts[0]) == 0 {
		// Zero-dimensional points vacuously all dominate each other.
		full := make([]uint64, m.words)
		for j := 0; j < n; j++ {
			full[j>>6] |= 1 << uint(j&63)
		}
		for i := 0; i < n; i++ {
			copy(m.dom[i*m.words:(i+1)*m.words], full)
		}
	} else {
		m.fillClosure(pts, workers)
	}
	m.fillDAG(pts, workers)
	return m
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

// fillClosure fills the ⪰ rows: for each dimension k, points are
// visited in ascending k-coordinate order while a running bitset
// accumulates every point whose k-coordinate is at most the current
// one (ties included, so the relation stays reflexive); the visit
// intersects the running bitset into the point's row. After all d
// sweeps a row holds exactly the AND of its d "at most me" sets — its
// dominated set.
func (m *Matrix) fillClosure(pts []geom.Point, workers int) {
	n, words, d := m.n, m.words, len(pts[0])
	numBlocks := (n + rowsPerBlock - 1) / rowsPerBlock

	order := make([]int, n)
	run := make([]uint64, words)
	seeds := make([]uint64, numBlocks*words)
	ptrs := make([]int, numBlocks)

	for k := 0; k < d; k++ {
		for i := range order {
			order[i] = i
		}
		kk := k
		sort.Slice(order, func(a, b int) bool { return pts[order[a]][kk] < pts[order[b]][kk] })

		// Sequential pre-pass: replay the sweep cheaply (bit sets only)
		// to snapshot the running bitset and candidate pointer at each
		// block boundary.
		for w := range run {
			run[w] = 0
		}
		ptr := 0
		for pos := 0; pos < n; pos++ {
			if pos%rowsPerBlock == 0 {
				b := pos / rowsPerBlock
				copy(seeds[b*words:(b+1)*words], run)
				ptrs[b] = ptr
			}
			c := pts[order[pos]][k]
			for ptr < n && pts[order[ptr]][k] <= c {
				j := order[ptr]
				run[j>>6] |= 1 << uint(j&63)
				ptr++
			}
		}

		// Parallel phase: each block replays its slice of the sweep
		// from the boundary snapshot and folds the running bitset into
		// its rows (copy on the first dimension, AND afterwards).
		parallelBlocks(numBlocks, workers, func(blk int) {
			local := make([]uint64, words)
			copy(local, seeds[blk*words:(blk+1)*words])
			ptr := ptrs[blk]
			lo, hi := blk*rowsPerBlock, (blk+1)*rowsPerBlock
			if hi > n {
				hi = n
			}
			for pos := lo; pos < hi; pos++ {
				i := order[pos]
				c := pts[i][k]
				for ptr < n && pts[order[ptr]][k] <= c {
					j := order[ptr]
					local[j>>6] |= 1 << uint(j&63)
					ptr++
				}
				row := m.dom[i*words : (i+1)*words]
				if k == 0 {
					copy(row, local)
				} else {
					for w := range row {
						row[w] &= local[w]
					}
				}
			}
		})
	}
}

// fillDAG derives the DAG rows from the closure: clear self-loops,
// then break the mutual edges of coordinate-equal groups down to the
// high-index -> low-index direction (DominanceEdge's tiebreak).
// Mutual dominance implies coordinate equality, so the only bits to
// fix live inside exact-duplicate groups.
func (m *Matrix) fillDAG(pts []geom.Point, workers int) {
	n, words := m.n, m.words
	numBlocks := (n + rowsPerBlock - 1) / rowsPerBlock
	parallelBlocks(numBlocks, workers, func(blk int) {
		lo, hi := blk*rowsPerBlock, (blk+1)*rowsPerBlock
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			row := m.dag[i*words : (i+1)*words]
			copy(row, m.dom[i*words:(i+1)*words])
			row[i>>6] &^= 1 << uint(i&63)
		}
	})

	mask := make([]uint64, words)
	for _, g := range duplicateGroups(pts) {
		// Walk members from highest to lowest index; mask holds the
		// higher members, whose bits must leave the current row.
		for t := len(g) - 1; t >= 0; t-- {
			i := g[t]
			if t < len(g)-1 {
				row := m.dag[i*words : (i+1)*words]
				for w := range row {
					row[w] &^= mask[w]
				}
			}
			mask[i>>6] |= 1 << uint(i&63)
		}
		for _, i := range g {
			mask[i>>6] &^= 1 << uint(i&63)
		}
	}
}

// duplicateGroups returns the index groups of coordinate-equal points
// (only groups of size >= 2), each sorted ascending.
func duplicateGroups(pts []geom.Point) [][]int {
	n := len(pts)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := pts[order[a]], pts[order[b]]
		for k := range pa {
			if pa[k] != pb[k] {
				return pa[k] < pb[k]
			}
		}
		return false
	})
	var groups [][]int
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && pts[order[hi]].Equal(pts[order[lo]]) {
			hi++
		}
		if hi-lo > 1 {
			g := append([]int(nil), order[lo:hi]...)
			sort.Ints(g)
			groups = append(groups, g)
		}
		lo = hi
	}
	return groups
}

// N returns the number of points.
func (m *Matrix) N() int { return m.n }

// Words returns the number of 64-bit words per row.
func (m *Matrix) Words() int { return m.words }

// Dominates reports pts[i] ⪰ pts[j] (reflexive; true in both
// directions for coordinate-equal points).
func (m *Matrix) Dominates(i, j int) bool {
	return m.dom[i*m.words+j>>6]>>(uint(j)&63)&1 == 1
}

// Edge reports the chain-DAG edge i -> j (see DominanceEdge).
func (m *Matrix) Edge(i, j int) bool {
	return m.dag[i*m.words+j>>6]>>(uint(j)&63)&1 == 1
}

// DomRow returns row i of the ⪰ closure. The slice aliases the
// matrix; callers must not modify it.
func (m *Matrix) DomRow(i int) []uint64 {
	return m.dom[i*m.words : (i+1)*m.words]
}

// DAGRow returns row i of the DAG relation, aliasing the matrix.
func (m *Matrix) DAGRow(i int) []uint64 {
	return m.dag[i*m.words : (i+1)*m.words]
}

// DAGBits returns the flat row-major DAG bitset (n rows × Words()
// words), aliasing the matrix. It is the adjacency input for
// matching.BitsetFromRows; callers must treat it as read-only.
func (m *Matrix) DAGBits() []uint64 { return m.dag }

// labelMask packs the positions carrying label l into a bitset.
func (m *Matrix) labelMask(labels []geom.Label, l geom.Label) []uint64 {
	if len(labels) != m.n {
		panic(fmt.Sprintf("domgraph: %d labels for %d points", len(labels), m.n))
	}
	mask := make([]uint64, m.words)
	for i, li := range labels {
		if li == l {
			mask[i>>6] |= 1 << uint(i&63)
		}
	}
	return mask
}

// CountViolations counts ordered pairs (i, j) with pts[i] ⪰ pts[j],
// label(i) = 0 and label(j) = 1 — the popcount kernel behind
// geom.MonotoneViolations. Zero means a perfect monotone classifier
// exists.
func (m *Matrix) CountViolations(labels []geom.Label) int {
	pos := m.labelMask(labels, geom.Positive)
	count := 0
	for i, l := range labels {
		if l != geom.Negative {
			continue
		}
		row := m.DomRow(i)
		for w, bitsW := range row {
			count += bits.OnesCount64(bitsW & pos[w])
		}
	}
	return count
}

// IsAntichain reports whether the given point indices are pairwise
// incomparable, in O(len(idx) · n/64) word operations. Duplicate
// indices in idx make it trivially false (a point is comparable to
// itself through another slot).
func (m *Matrix) IsAntichain(idx []int) bool {
	mask := make([]uint64, m.words)
	dup := false
	for _, i := range idx {
		if mask[i>>6]>>(uint(i)&63)&1 == 1 {
			dup = true
		}
		mask[i>>6] |= 1 << uint(i&63)
	}
	if dup {
		return false
	}
	// Every comparable pair i ⪰ j inside the set shows up on row i
	// (both orientations are covered because every member is scanned).
	for _, i := range idx {
		row := m.DomRow(i)
		self := i >> 6
		for w, bitsW := range row {
			v := bitsW & mask[w]
			if w == self {
				v &^= 1 << uint(i&63)
			}
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// Diff compares two matrices bit for bit and describes the first
// difference, or returns "" when they are identical. It is the
// differential-testing primitive the conformance harness uses to hold
// Build and BuildNaive to exact agreement.
func Diff(a, b *Matrix) string {
	if a.n != b.n {
		return fmt.Sprintf("point counts differ: %d vs %d", a.n, b.n)
	}
	for i := 0; i < a.n; i++ {
		for w, wa := range a.DomRow(i) {
			if wb := b.DomRow(i)[w]; wa != wb {
				j := w<<6 + bits.TrailingZeros64(wa^wb)
				return fmt.Sprintf("closure bit (%d,%d): %v vs %v", i, j, a.Dominates(i, j), b.Dominates(i, j))
			}
		}
		for w, wa := range a.DAGRow(i) {
			if wb := b.DAGRow(i)[w]; wa != wb {
				j := w<<6 + bits.TrailingZeros64(wa^wb)
				return fmt.Sprintf("dag bit (%d,%d): %v vs %v", i, j, a.Edge(i, j), b.Edge(i, j))
			}
		}
	}
	return ""
}

// CountEdges returns the number of DAG edges (a measure of poset
// density, popcounted word-wise).
func (m *Matrix) CountEdges() int {
	count := 0
	for _, w := range m.dag {
		count += bits.OnesCount64(w)
	}
	return count
}
