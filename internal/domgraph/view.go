package domgraph

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"monoclass/internal/geom"
)

// View is the read-only face of a dominance relation over an indexed
// point set — the abstraction that lets consumers (internal/problem,
// audit streaming kernels) run against a fully materialized Matrix, a
// tile-cached Blocked view, or a rank-array Implicit view without
// caring which. Every implementation answers exactly the bits
// BuildNaive would produce over the same points: the closure ⪰ is
// reflexive (bit (i,i) is always set, NaN coordinates included) and
// the DAG relation follows DominanceEdge's duplicate tiebreak.
//
// All implementations are safe for concurrent readers.
type View interface {
	// N returns the number of points.
	N() int
	// Words returns the packed row width, ceil(N/64).
	Words() int
	// Dominates reports pts[i] ⪰ pts[j] (reflexive).
	Dominates(i, j int) bool
	// Edge reports the chain-DAG edge i -> j (see DominanceEdge).
	Edge(i, j int) bool
	// ReadDomRow fills dst (length >= Words()) with closure row i.
	ReadDomRow(dst []uint64, i int)
	// ReadDAGRow fills dst (length >= Words()) with DAG row i.
	ReadDAGRow(dst []uint64, i int)
	// Materialize returns the fully dense matrix of the relation —
	// bit-identical to Build over the same points. Implementations
	// that are not already dense pay the full O(n²/64) memory here;
	// callers gate it (see problem.Options.ExactDecomposeLimit).
	Materialize() *Matrix
}

// Matrix implements View trivially.

// ReadDomRow copies closure row i into dst.
func (m *Matrix) ReadDomRow(dst []uint64, i int) { copy(dst, m.DomRow(i)) }

// ReadDAGRow copies DAG row i into dst.
func (m *Matrix) ReadDAGRow(dst []uint64, i int) { copy(dst, m.DAGRow(i)) }

// Materialize returns the matrix itself (it is already dense).
func (m *Matrix) Materialize() *Matrix { return m }

// MatrixFromWords adopts raw packed rows (row-major, ceil(n/64) words
// per row) as a Matrix, copying both slices. It performs structural
// validation only — lengths, reflexive closure bits, no DAG
// self-loops, DAG ⊆ closure; callers holding untrusted bits (the
// problem-artifact loader) must additionally check the relation
// against the points.
func MatrixFromWords(n int, dom, dag []uint64) (*Matrix, error) {
	if n < 0 {
		return nil, fmt.Errorf("domgraph: negative point count %d", n)
	}
	m := newMatrix(n)
	if len(dom) != len(m.dom) || len(dag) != len(m.dag) {
		return nil, fmt.Errorf("domgraph: got %d+%d words for %d points, want %d per relation",
			len(dom), len(dag), n, len(m.dom))
	}
	copy(m.dom, dom)
	copy(m.dag, dag)
	for i := 0; i < n; i++ {
		if !m.Dominates(i, i) {
			return nil, fmt.Errorf("domgraph: closure bit (%d,%d) clear — relation not reflexive", i, i)
		}
		if m.Edge(i, i) {
			return nil, fmt.Errorf("domgraph: dag self-loop at %d", i)
		}
		dr, gr := m.DomRow(i), m.DAGRow(i)
		for w := range gr {
			if gr[w]&^dr[w] != 0 {
				j := w<<6 + bits.TrailingZeros64(gr[w]&^dr[w])
				return nil, fmt.Errorf("domgraph: dag bit (%d,%d) set outside the closure", i, j)
			}
		}
	}
	return m, nil
}

// scalarOnly reports whether the sweep/rank builders are unusable for
// the point set: NaN coordinates break the `<=` sweep comparisons (a
// NaN point dominates nothing, and nothing dominates it, but the
// running-bitset sweep would misplace it), and zero-dimensional
// points have no coordinate to sweep on. Views fall back to per-pair
// geom.Dominates/DominanceEdge — exactly BuildNaive's definition.
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

// scalarDomRow fills one closure row by the BuildNaive definition.
func scalarDomRow(pts []geom.Point, i int, dst []uint64) {
	for w := range dst {
		dst[w] = 0
	}
	for j := range pts {
		if i == j || geom.Dominates(pts[i], pts[j]) {
			dst[j>>6] |= 1 << (uint(j) & 63)
		}
	}
}

// scalarDAGRow fills one DAG row by the DominanceEdge definition.
func scalarDAGRow(pts []geom.Point, i int, dst []uint64) {
	for w := range dst {
		dst[w] = 0
	}
	for j := range pts {
		if DominanceEdge(pts, i, j) {
			dst[j>>6] |= 1 << (uint(j) & 63)
		}
	}
}

// Implicit answers dominance queries from per-dimension rank arrays
// without materializing any bitset: O(d·n) int32 words of memory
// total, O(d) per Dominates query, O(d·n) per row read. Ranks are
// dense over the sorted distinct values of each dimension, so
// rank[k][i] >= rank[k][j] ⇔ pts[i][k] >= pts[j][k] including ties
// and ±Inf; point sets containing NaN (or zero-dimensional points)
// drop to the scalar fallback per query.
type Implicit struct {
	pts    []geom.Point
	words  int
	scalar bool
	rank   [][]int32 // [dim][point], nil when scalar
}

// NewImplicit builds the rank arrays in O(d·n log n).
func NewImplicit(pts []geom.Point) *Implicit {
	v := &Implicit{pts: pts, words: (len(pts) + 63) / 64}
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

// N returns the number of points.
func (v *Implicit) N() int { return len(v.pts) }

// Words returns the packed row width.
func (v *Implicit) Words() int { return v.words }

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

// equal reports coordinate equality via ranks (dense ranks preserve
// ties exactly).
func (v *Implicit) equal(i, j int) bool {
	for _, rk := range v.rank {
		if rk[i] != rk[j] {
			return false
		}
	}
	return true
}

// Edge reports the chain-DAG edge i -> j.
func (v *Implicit) Edge(i, j int) bool {
	if i == j {
		return false
	}
	if v.scalar {
		return DominanceEdge(v.pts, i, j)
	}
	if !v.Dominates(i, j) {
		return false
	}
	if v.equal(i, j) {
		return i > j
	}
	return true
}

// ReadDomRow fills closure row i in O(d·n).
func (v *Implicit) ReadDomRow(dst []uint64, i int) {
	if v.scalar {
		scalarDomRow(v.pts, i, dst[:v.words])
		return
	}
	for w := 0; w < v.words; w++ {
		dst[w] = 0
	}
	for j := range v.pts {
		if v.Dominates(i, j) {
			dst[j>>6] |= 1 << (uint(j) & 63)
		}
	}
}

// ReadDAGRow fills DAG row i in O(d·n).
func (v *Implicit) ReadDAGRow(dst []uint64, i int) {
	if v.scalar {
		scalarDAGRow(v.pts, i, dst[:v.words])
		return
	}
	for w := 0; w < v.words; w++ {
		dst[w] = 0
	}
	for j := range v.pts {
		if v.Edge(i, j) {
			dst[j>>6] |= 1 << (uint(j) & 63)
		}
	}
}

// Materialize builds the full dense matrix: the parallel sweep kernel
// normally, the scalar oracle when the sweeps are unusable. Either
// way the bits equal BuildNaive's.
func (v *Implicit) Materialize() *Matrix {
	if v.scalar {
		return BuildNaive(v.pts)
	}
	return Build(v.pts)
}

// BlockedConfig tunes a Blocked view. The zero value picks defaults.
type BlockedConfig struct {
	// TileRows is the number of matrix rows materialized per tile
	// (default 256, the kernel's parallel block size).
	TileRows int
	// CacheBytes caps the resident tile cache; least-recently-used
	// tiles are evicted past it (default 64 MiB, minimum two tiles).
	CacheBytes int64
}

// Blocked materializes the dominance bitset in row tiles on demand
// with an LRU cache, so streaming word-level consumers (violation
// popcounts, row scans) run at dense-kernel speed while resident
// memory stays at O(tiles · TileRows · n/64) words instead of the
// dense n²/64 wall. Tile fills replay the per-dimension sorted sweeps
// of the dense builder restricted to the tile's rows — O(d·n) single
// bit inserts plus O(TileRows · n/64) word folds per tile — against
// precomputed sort orders; point sets with NaN coordinates fill tiles
// by the scalar BuildNaive definition instead.
//
// Point queries (Dominates/Edge) answer scalarly in O(d) without
// touching the cache; only row reads materialize tiles.
type Blocked struct {
	pts      []geom.Point
	n, words int
	tileRows int
	maxTiles int
	scalar   bool
	orders   [][]int32 // per-dimension ascending coordinate order
	dups     [][]int   // coordinate-equal groups, for the DAG tiebreak

	mu     sync.Mutex
	tiles  map[int]*tile
	clock  int64
	hits   int64
	misses int64
}

type tile struct {
	lo, hi   int
	dom, dag []uint64 // (hi-lo) rows × words
	lastUse  int64
}

// NewBlocked prepares the sort orders and duplicate groups in
// O(d·n log n); no tile is materialized until the first row read.
func NewBlocked(pts []geom.Point, cfg BlockedConfig) *Blocked {
	n := len(pts)
	b := &Blocked{
		pts:      pts,
		n:        n,
		words:    (n + 63) / 64,
		tileRows: cfg.TileRows,
		tiles:    make(map[int]*tile),
	}
	if b.tileRows <= 0 {
		b.tileRows = rowsPerBlock
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = 64 << 20
	}
	tileBytes := int64(b.tileRows) * int64(b.words) * 16 // dom + dag words
	if tileBytes <= 0 {
		tileBytes = 1
	}
	b.maxTiles = int(cacheBytes / tileBytes)
	if b.maxTiles < 2 {
		b.maxTiles = 2
	}
	if scalarOnly(pts) {
		b.scalar = true
		return b
	}
	if n == 0 {
		return b
	}
	d := len(pts[0])
	b.orders = make([][]int32, d)
	order := make([]int, n)
	for k := 0; k < d; k++ {
		for i := range order {
			order[i] = i
		}
		kk := k
		sort.Slice(order, func(x, y int) bool { return pts[order[x]][kk] < pts[order[y]][kk] })
		ord := make([]int32, n)
		for pos, i := range order {
			ord[pos] = int32(i)
		}
		b.orders[k] = ord
	}
	b.dups = duplicateGroups(pts)
	return b
}

// N returns the number of points.
func (b *Blocked) N() int { return b.n }

// Words returns the packed row width.
func (b *Blocked) Words() int { return b.words }

// Dominates reports pts[i] ⪰ pts[j], answered scalarly.
func (b *Blocked) Dominates(i, j int) bool {
	if i == j {
		return true
	}
	return geom.Dominates(b.pts[i], b.pts[j])
}

// Edge reports the chain-DAG edge i -> j, answered scalarly.
func (b *Blocked) Edge(i, j int) bool {
	return DominanceEdge(b.pts, i, j)
}

// CacheStats reports tile cache hits, misses, and resident tiles.
func (b *Blocked) CacheStats() (hits, misses int64, resident int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits, b.misses, len(b.tiles)
}

// tileFor returns the (filled) tile containing row i, materializing
// and LRU-evicting under the lock. Callers must hold b.mu.
func (b *Blocked) tileFor(i int) *tile {
	id := i / b.tileRows
	b.clock++
	if t := b.tiles[id]; t != nil {
		t.lastUse = b.clock
		b.hits++
		return t
	}
	b.misses++
	if len(b.tiles) >= b.maxTiles {
		oldID, oldUse := -1, int64(1<<62)
		for tid, t := range b.tiles {
			if t.lastUse < oldUse {
				oldID, oldUse = tid, t.lastUse
			}
		}
		delete(b.tiles, oldID)
	}
	lo := id * b.tileRows
	hi := lo + b.tileRows
	if hi > b.n {
		hi = b.n
	}
	t := &tile{
		lo: lo, hi: hi,
		dom:     make([]uint64, (hi-lo)*b.words),
		dag:     make([]uint64, (hi-lo)*b.words),
		lastUse: b.clock,
	}
	b.fillTile(t)
	b.tiles[id] = t
	return t
}

// fillTile materializes one tile's closure and DAG rows, bit-identical
// to the corresponding rows of Build/BuildNaive.
func (b *Blocked) fillTile(t *tile) {
	words := b.words
	if b.scalar {
		for i := t.lo; i < t.hi; i++ {
			scalarDomRow(b.pts, i, t.dom[(i-t.lo)*words:(i-t.lo+1)*words])
			scalarDAGRow(b.pts, i, t.dag[(i-t.lo)*words:(i-t.lo+1)*words])
		}
		return
	}
	// Closure: replay each per-dimension sweep over the whole order,
	// folding the running bitset only into the tile's rows.
	run := make([]uint64, words)
	for k, order := range b.orders {
		for w := range run {
			run[w] = 0
		}
		ptr := 0
		for pos := 0; pos < b.n; pos++ {
			i := int(order[pos])
			c := b.pts[i][k]
			for ptr < b.n && b.pts[order[ptr]][k] <= c {
				j := order[ptr]
				run[j>>6] |= 1 << (uint(j) & 63)
				ptr++
			}
			if i < t.lo || i >= t.hi {
				continue
			}
			row := t.dom[(i-t.lo)*words : (i-t.lo+1)*words]
			if k == 0 {
				copy(row, run)
			} else {
				for w := range row {
					row[w] &= run[w]
				}
			}
		}
	}
	// DAG: closure minus self-loops, with duplicate groups broken down
	// to the high-index -> low-index direction (fillDAG's rule).
	for i := t.lo; i < t.hi; i++ {
		row := t.dag[(i-t.lo)*words : (i-t.lo+1)*words]
		copy(row, t.dom[(i-t.lo)*words:(i-t.lo+1)*words])
		row[i>>6] &^= 1 << (uint(i) & 63)
	}
	for _, g := range b.dups {
		for gi, i := range g {
			if i < t.lo || i >= t.hi {
				continue
			}
			row := t.dag[(i-t.lo)*words : (i-t.lo+1)*words]
			for _, j := range g[gi+1:] {
				row[j>>6] &^= 1 << (uint(j) & 63)
			}
		}
	}
}

// ReadDomRow fills closure row i from the tile cache.
func (b *Blocked) ReadDomRow(dst []uint64, i int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tileFor(i)
	copy(dst, t.dom[(i-t.lo)*b.words:(i-t.lo+1)*b.words])
}

// ReadDAGRow fills DAG row i from the tile cache.
func (b *Blocked) ReadDAGRow(dst []uint64, i int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tileFor(i)
	copy(dst, t.dag[(i-t.lo)*b.words:(i-t.lo+1)*b.words])
}

// Materialize builds the full dense matrix (bypassing the tile cache):
// the parallel kernel normally, the scalar oracle when NaN coordinates
// make the sweeps unusable.
func (b *Blocked) Materialize() *Matrix {
	if b.scalar {
		return BuildNaive(b.pts)
	}
	return Build(b.pts)
}

// ViewCountViolations is CountViolations for any View: ordered pairs
// (i, j) with pts[i] ⪰ pts[j], label(i)=0, label(j)=1, popcounted by
// streaming rows through the view (tile-cached for Blocked). Cost is
// O(n²/64) word operations over the negative rows.
func ViewCountViolations(v View, labels []geom.Label) int {
	n := v.N()
	if len(labels) != n {
		panic(fmt.Sprintf("domgraph: %d labels for %d points", len(labels), n))
	}
	words := v.Words()
	pos := make([]uint64, words)
	for i, li := range labels {
		if li == geom.Positive {
			pos[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	row := make([]uint64, words)
	count := 0
	for i, li := range labels {
		if li != geom.Negative {
			continue
		}
		v.ReadDomRow(row, i)
		for w, bw := range row {
			count += bits.OnesCount64(bw & pos[w])
		}
	}
	return count
}
