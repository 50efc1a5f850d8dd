// Package chains implements chain decompositions of point sets under
// the dominance order, the substrate behind Lemma 6 of the paper:
//
//	Given a set P of n points in R^d, a chain decomposition of P with
//	exactly w chains (w = dominance width) is computable in
//	O(dn² + n^2.5) time.
//
// The construction follows the paper's appendix: build the dominance
// DAG, reduce minimum vertex-disjoint path cover to maximum bipartite
// matching (the DAG is transitively closed, so path cover = chain
// cover), and solve the matching with Hopcroft–Karp. Dilworth's theorem
// guarantees the chain count equals the maximum antichain size, and a
// maximum antichain is extracted from a König minimum vertex cover as a
// certificate.
//
// DecomposeRoute is the one route to a minimum cover: the O(n log n)
// fast paths at d ≤ 2, the construction above over the dense
// triangular bit matrix at d ≥ 3 within DefaultExactDecomposeLimit
// points (or the caller's limit) and a 2 GiB footprint guard, and
// GreedyDecompose's valid but possibly wider cover everywhere else.
// CoverRoute is the same route stopped before the matching: at d ≥ 3
// within the guard it returns the best-fit seed cover the matching
// would start from, exact only when the seed's bottoms or tops certify
// it. Theorem 4's network is exact over any valid cover, so
// problem.Prepare takes CoverRoute; the readers of the width itself
// (the active learner's probe budget, Width, the CLI's width report)
// take DecomposeRoute. Each route reports which path it took; a cover
// that is not known to be minimum carries no antichain.
package chains

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/matching"
)

// Decomposition is the result of decomposing a point set into chains.
type Decomposition struct {
	// Chains partitions the point indices; each chain is sorted in
	// ascending dominance order (every point dominates all points
	// before it in its chain).
	Chains [][]int
	// Width is always len(Chains): the dominance width w of the set
	// when the cover is minimum, an upper bound on it otherwise.
	Width int
	// Antichain is a maximum antichain of exactly Width points,
	// certifying (by Dilworth) that no decomposition has fewer chains;
	// nil on a greedy cover, which has no such certificate.
	Antichain []int
}

// The paths the routes take, as Route.Path names them.
const (
	PathFast2D         = "fast-2d"         // d ≤ 2, O(n log n); exact
	PathSeedDense      = "seed-dense"      // dense matrix + best-fit seed cover (CoverRoute); exact when certified
	PathExactDense     = "exact-dense"     // dense matrix + warm-started matching (DecomposeRoute); exact
	PathGreedyFallback = "greedy-fallback" // GreedyDecompose; no antichain
)

const (
	// DefaultExactDecomposeLimit is the largest n the route decomposes
	// exactly at d ≥ 3 (a 256 MiB triangle at the limit).
	DefaultExactDecomposeLimit = 65536
	// maxDenseBytes caps the dense matrix footprint
	// (domgraph.Footprint): past it the route falls back to greedy
	// whatever the limit says.
	maxDenseBytes = int64(2) << 30
)

// Route is one run of DecomposeRoute or CoverRoute: the cover, the
// path that built it, and the dominance structure that path built.
type Route struct {
	Decomposition
	// Path names the branch taken (Path* constants).
	Path string
	// Matrix is the dense paths' matrix and Implicit PathFast2D's rank
	// arrays; problem.Prepare builds its network over whichever is set.
	// MatrixTime is the time that structure took to build, and the
	// seed and matching counters are the dense paths'. All are zero on
	// the greedy fallback.
	Matrix     *domgraph.Matrix
	Implicit   *domgraph.Implicit
	MatrixTime time.Duration
	Stats      DecomposeStats
}

// Exact reports whether Width is the dominance width: the cover
// carries an antichain of Width points, which by Dilworth no cover
// beats. DecomposeRoute's covers are exact on every path but the
// greedy fallback; CoverRoute's seed cover only when certified.
func (r Route) Exact() bool { return len(r.Antichain) == r.Width }

// DecomposeRoute is the Lemma 6 route to a minimum cover. d ≤ 2 builds
// the rank arrays (domgraph.NewImplicit), whose radix sort leaves the
// points in (x, y, index) order, and runs the O(n log n) fast path
// over that order. d ≥ 3 with n ≤ exactLimit and the triangle within
// 2 GiB builds the dominance matrix, its best-fit seed cover and the
// warm-started matching on top, as DecomposeMatrixStats does. Every
// other input gets GreedyDecompose's cover, which carries no
// antichain. exactLimit 0 selects DefaultExactDecomposeLimit; a
// negative one sends every d ≥ 3 input to the greedy fallback.
func DecomposeRoute(pts []geom.Point, exactLimit int) Route {
	return route(pts, exactLimit, true)
}

// CoverRoute is DecomposeRoute without the matching: on the dense
// path it returns the best-fit seed cover (PathSeedDense), which is
// valid but may hold more chains than the width, and keeps the seed's
// antichain certificate only when its bottoms or tops prove it minimum.
// The d ≤ 2 and greedy paths are DecomposeRoute's.
func CoverRoute(pts []geom.Point, exactLimit int) Route {
	return route(pts, exactLimit, false)
}

func route(pts []geom.Point, exactLimit int, minimum bool) Route {
	if exactLimit == 0 {
		exactLimit = DefaultExactDecomposeLimit
	}
	n := len(pts)
	if n == 0 {
		return Route{Path: PathFast2D}
	}
	var r Route
	switch d := len(pts[0]); {
	case d == 1 || d == 2:
		start := time.Now()
		r.Implicit = domgraph.NewImplicit(pts)
		r.MatrixTime = time.Since(start)
		if d == 1 {
			r.Decomposition = decompose1D(r.Implicit)
		} else {
			r.Decomposition = decompose2D(r.Implicit)
		}
		r.Path = PathFast2D
	case n <= exactLimit && domgraph.Footprint(n) <= maxDenseBytes:
		start := time.Now()
		r.Matrix = domgraph.Build(pts)
		r.MatrixTime = time.Since(start)
		s := newSeed(r.Matrix, greedySeedBitset(r.Matrix))
		if minimum {
			r.Decomposition, r.Stats = s.minimum()
			r.Path = PathExactDense
		} else {
			r.Decomposition, r.Stats = s.cover(), s.st
			r.Path = PathSeedDense
		}
	default:
		gc := GreedyDecompose(pts)
		r.Decomposition = Decomposition{Chains: gc, Width: len(gc)}
		r.Path = PathGreedyFallback
	}
	return r
}

// Decompose is DecomposeRoute at the default limit: a minimum chain
// decomposition with a maximum antichain, except at d ≥ 3 past
// DefaultExactDecomposeLimit points, where it returns the greedy cover
// (Width an upper bound, no antichain).
func Decompose(pts []geom.Point) Decomposition {
	return DecomposeRoute(pts, 0).Decomposition
}

// DecomposeStats reports how a matrix decomposition reached its
// cover; the warm-start conformance check and the prepare-stage
// instrumentation (problem.PrepareStats) consume it.
type DecomposeStats struct {
	// SeedChains is the chain count of the best-fit seed cover (the one
	// the matching was seeded from, when it ran).
	SeedChains int
	// Width is the returned cover's chain count: the minimum after the
	// matching, SeedChains on CoverRoute's seed cover.
	Width int
	// Augmentations is the number of Hopcroft–Karp augmenting paths
	// applied on top of the seed — exactly SeedChains − Width when
	// seeded, the paper-adjacent width-bounded work claim; 0 when no
	// matching ran.
	Augmentations int
	// Phases is the number of BFS layerings run, including the final
	// empty one; 0 when no matching ran.
	Phases int
	// CertEarlyExit reports that a maximum antichain of size equal to
	// the seed's chain count proved the seed optimal with zero
	// matching phases.
	CertEarlyExit bool
}

// DecomposeMatrixStats is the Lemma 6 construction over a prebuilt
// dominance matrix m of pts, with its warm-start work counters. The
// matching runs directly on the packed triangle, in the matrix's
// positions, so the cost stays O(dn² + n^2.5) time and O(n²) bits,
// with the constant cut by the word width; the chains and the
// antichain are mapped back to input indices at the end. It is
// warm-started: a best-fit greedy chain cover (each point above the
// open chain top latest in domgraph.SumLexOrder that it dominates; see
// greedySeedBitset) is built on the packed rows (at most n²/128 word
// reads, no scalar dominance tests) and handed to Hopcroft–Karp as the
// seed, so only coverSize − width augmentations remain instead of
// O(√n) phases over an empty matching. When the seed's chain bottoms
// or tops already form an antichain of matching size, that
// certificate proves the seed optimal and the matching is skipped
// outright. DecomposeRoute runs the same construction within its
// guard; code that wants it on purpose (the conformance oracles, E8)
// calls it with domgraph.Build(pts).
func DecomposeMatrixStats(pts []geom.Point, m *domgraph.Matrix) (Decomposition, DecomposeStats) {
	n := checkMatrix(pts, m)
	if n == 0 {
		return Decomposition{}, DecomposeStats{}
	}
	return newSeed(m, greedySeedBitset(m)).minimum()
}

// DecomposeMatrixSeeded is DecomposeMatrixStats warm-started from a
// caller-supplied chain cover instead of the built-in greedy one. The
// cover must partition [0, n) into valid dominance chains (ascending);
// consecutive pairs that are not DAG edges (coordinate-equal points
// listed against the index tiebreak) are skipped, which only weakens
// the seed, never the result. Any valid cover converges to the same
// minimum width.
func DecomposeMatrixSeeded(pts []geom.Point, m *domgraph.Matrix, cover [][]int) (Decomposition, DecomposeStats) {
	n := checkMatrix(pts, m)
	if n == 0 {
		return Decomposition{}, DecomposeStats{}
	}
	seedL := make([]int, n) // in positions, as the matching runs
	for i := range seedL {
		seedL[i] = -1
	}
	seen := make([]bool, n)
	covered := 0
	for _, chain := range cover {
		for k, idx := range chain {
			if idx < 0 || idx >= n || seen[idx] {
				panic(fmt.Sprintf("chains: seed cover is not a partition (index %d)", idx))
			}
			seen[idx] = true
			covered++
			if k > 0 && m.Edge(idx, chain[k-1]) {
				seedL[m.Position(idx)] = m.Position(chain[k-1])
			}
		}
	}
	if covered != n {
		panic(fmt.Sprintf("chains: seed cover holds %d of %d points", covered, n))
	}
	return newSeed(m, seedL).minimum()
}

func checkMatrix(pts []geom.Point, m *domgraph.Matrix) int {
	n := m.N()
	if n != len(pts) {
		panic(fmt.Sprintf("chains: matrix covers %d points, input has %d", n, len(pts)))
	}
	return n
}

// greedySeedBitset builds a best-fit greedy chain cover directly on
// the triangle, in matching form over positions: seedL[p] = the
// position directly below p in its chain, or -1 at a chain bottom.
// Positions are visited in order, a linear extension of the DAG, and
// each attaches above the open chain top its row covers that came
// latest — the highest top it can reach, which leaves the lower tops
// open for the points still to come. First-fit (the lowest-index top)
// left ≈5% more seed chains on planted noisy d=3 sets and ran a
// quarter more matching phases (DESIGN.md §13). Since a row holds
// only positions below its own, the latest reachable top is the
// highest set bit of row AND open tops: one backward scan over the
// row's words that stops at the first non-zero one, so a low-width
// set reads a word or two per point and a point that starts a new
// chain reads its ⌈p/64⌉ words once. Validity needs no ordering
// assumption: every link is a real DAG edge, so the matching always
// decodes into disjoint ascending chains.
func greedySeedBitset(m *domgraph.Matrix) []int {
	rows, off := m.DAGRows()
	n := m.N()
	seedL := make([]int, n)
	open := make([]uint64, (n+63)/64) // the open chain tops
	for p := 0; p < n; p++ {
		seedL[p] = -1
		row := rows[off[p]:off[p+1]]
		for w := len(row) - 1; w >= 0; w-- {
			if x := row[w] & open[w]; x != 0 {
				q := w<<6 + 63 - bits.LeadingZeros64(x)
				seedL[p] = q
				open[w] &^= 1 << uint(q&63) // q is no longer a top
				break
			}
		}
		open[p>>6] |= 1 << uint(p&63) // p tops its chain either way
	}
	return seedL
}

// seed is a chain cover over m's positions in matching form, with the
// outcome of its antichain certificate.
type seed struct {
	m    *domgraph.Matrix
	mm   matching.Matching // MatchLeft is the seed: the position below each, or -1
	anti []int             // the certifying bottoms or tops (input indices); nil if neither
	st   DecomposeStats
}

// newSeed turns seedL, a cover over m's positions in matching form,
// into a matching and tries its certificate: the seed's c chains are
// minimum iff some antichain has c points (Dilworth). Its chain
// bottoms (free on the left) and chain tops (free on the right) hold
// one point per chain each, so they are the natural candidates, and
// each costs only an O(c·n/64) incomparability check. A hit leaves
// the matching nothing to do; a miss costs nothing beyond the single
// certifying BFS the matching would run anyway.
func newSeed(m *domgraph.Matrix, seedL []int) seed {
	n, order := m.N(), m.Order()
	s := seed{m: m, mm: matching.Matching{MatchLeft: seedL, MatchRight: make([]int, n)}}
	for v := range s.mm.MatchRight {
		s.mm.MatchRight[v] = -1
	}
	var bottoms, tops []int
	for u, v := range seedL {
		if v == -1 {
			bottoms = append(bottoms, int(order[u]))
			continue
		}
		s.mm.MatchRight[v] = u
		s.mm.Size++
	}
	for v, u := range s.mm.MatchRight {
		if u == -1 {
			tops = append(tops, int(order[v]))
		}
	}
	s.st = DecomposeStats{SeedChains: n - s.mm.Size, Width: n - s.mm.Size}
	for _, anti := range [2][]int{bottoms, tops} {
		if m.IsAntichain(anti) {
			s.anti, s.st.CertEarlyExit = anti, true
			break
		}
	}
	return s
}

// cover decodes the seed itself: its chains over input indices, with
// the certificate when it held.
func (s seed) cover() Decomposition {
	return decomposition(s.mm, s.m.Order(), s.anti)
}

// minimum finishes the Lemma 6 construction from the seed: nothing
// more when the certificate held, otherwise Hopcroft–Karp warm-started
// from it, the chain walk and the König antichain, each result mapped
// back to input indices.
func (s seed) minimum() (Decomposition, DecomposeStats) {
	if s.st.CertEarlyExit {
		return s.cover(), s.st
	}
	m, st := s.m, s.st
	n, order := m.N(), m.Order()

	// Bipartite reduction for minimum path cover: left copy u matched
	// to right copy v encodes using DAG edge u -> v (u directly above v
	// in its chain). Cover size = n - |matching|. The kernel's
	// triangle is adopted as the packed adjacency without copying,
	// marked transitive so the matcher's closure rules apply.
	rows, off := m.DAGRows()
	b := matching.BitsetFromDAG(n, rows, off)
	mm, mst := matching.MaxMatchingBitsetWarm(b, s.mm.MatchLeft)
	st.Phases, st.Augmentations, st.Width = mst.Phases, mst.Augmentations, n-mm.Size

	// König: complement of a minimum vertex cover is a maximum
	// independent set; a point outside the cover on both sides has no
	// incident DAG edge inside the independent set, i.e. the selected
	// points are pairwise incomparable — a maximum antichain.
	coverL, coverR := matching.MinVertexCoverBitset(b, mm)
	var anti []int
	for p := 0; p < n; p++ {
		if !coverL[p] && !coverR[p] {
			anti = append(anti, int(order[p]))
		}
	}
	if len(anti) != st.Width {
		panic(fmt.Sprintf("chains: antichain size %d != chain count %d", len(anti), st.Width))
	}
	if !m.IsAntichain(anti) {
		panic("chains: extracted certificate is not an antichain")
	}
	return decomposition(mm, order, anti), st
}

// decomposition walks the chains of a matching over positions and
// returns them over input indices with the antichain anti, sorted.
// The chains are listed by their tops' indices, as the walk over
// indices lists them: a seed the certificate proves optimal then
// yields the very list DecomposeGenericScalar's walk would, and
// callers that work chain by chain — the active learner draws its
// probes chain by chain — see the same cover whichever numbering the
// matching ran in.
func decomposition(mm matching.Matching, order []int32, anti []int) Decomposition {
	chainSets := chainsFromMatching(mm, len(order))
	for _, c := range chainSets {
		for k, p := range c {
			c[k] = int(order[p])
		}
	}
	slices.SortFunc(chainSets, func(a, b []int) int { return a[len(a)-1] - b[len(b)-1] })
	sort.Ints(anti)
	return Decomposition{Chains: chainSets, Width: len(chainSets), Antichain: anti}
}

// chainsFromMatching walks chains from their maximal elements (right
// copies left unmatched: nothing sits above them).
func chainsFromMatching(mm matching.Matching, n int) [][]int {
	chainSets := make([][]int, 0, n-mm.Size)
	for v := 0; v < n; v++ {
		if mm.MatchRight[v] != -1 {
			continue // some point sits directly above v
		}
		var desc []int
		for u := v; u != -1; u = mm.MatchLeft[u] {
			desc = append(desc, u)
		}
		// desc runs top-down; chains are reported in ascending order.
		for l, r := 0, len(desc)-1; l < r; l, r = l+1, r-1 {
			desc[l], desc[r] = desc[r], desc[l]
		}
		chainSets = append(chainSets, desc)
	}
	if len(chainSets) != n-mm.Size {
		panic(fmt.Sprintf("chains: built %d chains, expected %d", len(chainSets), n-mm.Size))
	}
	return chainSets
}

// DecomposeGenericScalar is the pre-kernel Lemma 6 construction —
// adjacency lists built with one scalar dominance test per ordered
// pair (domgraph.DominanceEdge, whose tiebreak chains coordinate-equal
// points up by index), slice-based Hopcroft–Karp. It is kept as the
// cross-check oracle for the kernel path (tests assert identical
// widths and valid certificates) and as the baseline of
// BenchmarkDecomposeGeneric. It shares only the chain walk from a
// matching (chainsFromMatching) with the kernel path, and every check
// validates the chains it walks.
func DecomposeGenericScalar(pts []geom.Point) Decomposition {
	n := len(pts)
	if n == 0 {
		return Decomposition{}
	}
	b := matching.NewBipartite(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if domgraph.DominanceEdge(pts, i, j) {
				b.AddEdge(i, j)
			}
		}
	}
	m := matching.MaxMatching(b)
	chains := chainsFromMatching(m, n)

	coverL, coverR := matching.MinVertexCover(b, m)
	var anti []int
	for i := 0; i < n; i++ {
		if !coverL[i] && !coverR[i] {
			anti = append(anti, i)
		}
	}
	if len(anti) != len(chains) {
		panic(fmt.Sprintf("chains: antichain size %d != chain count %d", len(anti), len(chains)))
	}
	sort.Ints(anti)
	return Decomposition{Chains: chains, Width: len(chains), Antichain: anti}
}

// Width returns the dominance width of pts: the size of its largest
// antichain, equivalently the minimum number of chains covering it —
// the route's chain count. At d ≥ 3 past DefaultExactDecomposeLimit
// points it is the greedy cover's chain count instead, an upper bound
// (see DecomposeRoute).
func Width(pts []geom.Point) int {
	return Decompose(pts).Width
}

// GreedyDecompose is the classic first-fit heuristic: points are
// processed in a linear extension of dominance (sorted by coordinate
// sum, ties broken lexicographically) and appended to the first chain
// whose current top they dominate. It uses O(dn·w') time after sorting
// but may emit more than w chains. It is DecomposeRoute's fallback past
// the exact limit, and E8's ablation baseline showing why the
// matching-based construction matters.
func GreedyDecompose(pts []geom.Point) [][]int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	order := domgraph.SumLexOrder(pts)
	var chains [][]int
	for _, idx := range order {
		placed := false
		for c := range chains {
			top := chains[c][len(chains[c])-1]
			if geom.Dominates(pts[idx], pts[top]) {
				chains[c] = append(chains[c], idx)
				placed = true
				break
			}
		}
		if !placed {
			chains = append(chains, []int{idx})
		}
	}
	return chains
}

// ValidateDecomposition checks that chains is a partition of [0, n)
// into dominance chains (ascending). It returns a descriptive error on
// the first violation; nil means valid. Tests and the experiment
// harness call it after every decomposition.
func ValidateDecomposition(pts []geom.Point, chains [][]int) error {
	seen := make([]bool, len(pts))
	total := 0
	for ci, chain := range chains {
		if len(chain) == 0 {
			return fmt.Errorf("chains: chain %d is empty", ci)
		}
		for k, idx := range chain {
			if idx < 0 || idx >= len(pts) {
				return fmt.Errorf("chains: chain %d contains out-of-range index %d", ci, idx)
			}
			if seen[idx] {
				return fmt.Errorf("chains: point %d appears twice", idx)
			}
			seen[idx] = true
			total++
			if k > 0 && !geom.Dominates(pts[idx], pts[chain[k-1]]) {
				return fmt.Errorf("chains: chain %d not ascending at position %d", ci, k)
			}
		}
	}
	if total != len(pts) {
		return fmt.Errorf("chains: cover %d of %d points", total, len(pts))
	}
	return nil
}

// ValidateAntichain checks that the given indices are pairwise
// incomparable points of pts.
func ValidateAntichain(pts []geom.Point, anti []int) error {
	for _, i := range anti {
		if i < 0 || i >= len(pts) {
			return fmt.Errorf("chains: antichain index %d out of range", i)
		}
	}
	for a := 0; a < len(anti); a++ {
		for b := a + 1; b < len(anti); b++ {
			i, j := anti[a], anti[b]
			if geom.Comparable(pts[i], pts[j]) {
				return fmt.Errorf("chains: antichain members %d and %d are comparable", i, j)
			}
		}
	}
	return nil
}
