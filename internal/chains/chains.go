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
// DecomposeRoute is the one route every caller takes to a cover: the
// O(n log n) fast paths at d ≤ 2, the construction above over a dense
// bit matrix at d ≥ 3 within DefaultExactDecomposeLimit points (or the
// caller's limit) and a 2 GiB footprint guard, and GreedyDecompose's
// valid but possibly wider cover everywhere else. The route reports
// which path it took; a greedy cover carries no antichain.
package chains

import (
	"cmp"
	"fmt"
	"math"
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

// The paths DecomposeRoute takes, as Route.Path names them.
const (
	PathFast2D         = "fast-2d"         // d ≤ 2, O(n log n); exact
	PathExactDense     = "exact-dense"     // dense matrix + warm-started matching; exact
	PathGreedyFallback = "greedy-fallback" // GreedyDecompose; no antichain
)

const (
	// DefaultExactDecomposeLimit is the largest n the route decomposes
	// exactly at d ≥ 3 (1 GiB of dom+dag words at the limit).
	DefaultExactDecomposeLimit = 65536
	// maxDenseBytes caps the dense matrix footprint: past it the route
	// falls back to greedy whatever the limit says.
	maxDenseBytes = int64(2) << 30
)

// Route is one run of DecomposeRoute: the cover, the path that built
// it, and the dense matrix when that path built one.
type Route struct {
	Decomposition
	// Path names the branch taken (Path* constants).
	Path string
	// Matrix, the time it took to build, and the warm-start counters
	// are PathExactDense's; problem.Prepare builds its network on the
	// matrix. Zero on the other paths.
	Matrix     *domgraph.Matrix
	MatrixTime time.Duration
	Stats      DecomposeStats
}

// Exact reports whether Width is the dominance width: true on every
// path but the greedy fallback.
func (r Route) Exact() bool { return r.Path != PathGreedyFallback }

// DecomposeRoute is the one Lemma 6 route every caller takes. d ≤ 2
// takes the O(n log n) fast paths. d ≥ 3 with n ≤ exactLimit and the
// two n×n bit relations within 2 GiB builds the dominance matrix and
// runs the warm-started matching on it (DecomposeMatrixStats). Every
// other input gets GreedyDecompose's cover, which carries no
// antichain. exactLimit 0 selects DefaultExactDecomposeLimit; a
// negative one sends every d ≥ 3 input to the greedy fallback.
func DecomposeRoute(pts []geom.Point, exactLimit int) Route {
	if exactLimit == 0 {
		exactLimit = DefaultExactDecomposeLimit
	}
	n := len(pts)
	if n == 0 {
		return Route{Path: PathFast2D}
	}
	var r Route
	switch d := len(pts[0]); {
	case d == 1:
		r.Decomposition, r.Path = Decompose1D(pts), PathFast2D
	case d == 2:
		r.Decomposition, r.Path = Decompose2D(pts), PathFast2D
	case n <= exactLimit && denseFootprint(n) <= maxDenseBytes:
		start := time.Now()
		r.Matrix = domgraph.Build(pts)
		r.MatrixTime = time.Since(start)
		r.Decomposition, r.Stats = DecomposeMatrixStats(pts, r.Matrix)
		r.Path = PathExactDense
	default:
		gc := GreedyDecompose(pts)
		r.Decomposition = Decomposition{Chains: gc, Width: len(gc)}
		r.Path = PathGreedyFallback
	}
	return r
}

// denseFootprint returns the dom+dag byte cost of a dense matrix over
// n points.
func denseFootprint(n int) int64 { return 2 * int64(n) * int64((n+63)/64) * 8 }

// Decompose is DecomposeRoute at the default limit: a minimum chain
// decomposition with a maximum antichain, except at d ≥ 3 past
// DefaultExactDecomposeLimit points, where it returns the greedy cover
// (Width an upper bound, no antichain).
func Decompose(pts []geom.Point) Decomposition {
	return DecomposeRoute(pts, 0).Decomposition
}

// DecomposeStats reports how a matrix decomposition reached its
// minimum chain cover; the warm-start conformance check and the
// prepare-stage instrumentation (problem.PrepareStats) consume it.
type DecomposeStats struct {
	// SeedChains is the chain count of the warm-start cover the
	// matching was seeded from.
	SeedChains int
	// Width is the final minimum chain count.
	Width int
	// Augmentations is the number of Hopcroft–Karp augmenting paths
	// applied on top of the seed — exactly SeedChains − Width when
	// seeded, the paper-adjacent width-bounded work claim.
	Augmentations int
	// Phases is the number of BFS layerings run, including the final
	// empty one; 0 when the antichain certificate skipped matching
	// entirely.
	Phases int
	// CertEarlyExit reports that a maximum antichain of size equal to
	// the seed's chain count proved the seed optimal with zero
	// matching phases.
	CertEarlyExit bool
}

// DecomposeMatrixStats is the Lemma 6 construction over a prebuilt
// dominance matrix m of pts, with its warm-start work counters. The
// matching runs directly on the packed DAG rows, so the cost stays
// O(dn² + n^2.5) time and O(n²) bits, with the constant cut by the word
// width. It is warm-started: a best-fit greedy chain cover (each point
// above the open chain top latest in sumLexOrder that it dominates;
// see greedySeedBitset) is built on the packed rows (O(n²/64) word
// scans, no scalar dominance tests) and handed to Hopcroft–Karp as the
// seed, so only coverSize − width augmentations remain instead of
// O(√n) phases over an empty matching. When the seed's chain bottoms
// or tops already form an antichain of matching size, that
// certificate proves the seed optimal and the matching is skipped
// outright. DecomposeRoute calls it within its guard; code that wants
// the dense construction on purpose (the conformance oracles, E8)
// calls it with domgraph.Build(pts).
func DecomposeMatrixStats(pts []geom.Point, m *domgraph.Matrix) (Decomposition, DecomposeStats) {
	n := checkMatrix(pts, m)
	if n == 0 {
		return Decomposition{}, DecomposeStats{}
	}
	return decomposeSeeded(m, greedySeedBitset(pts, m))
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
	seedL := make([]int, n)
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
				seedL[idx] = chain[k-1]
			}
		}
	}
	if covered != n {
		panic(fmt.Sprintf("chains: seed cover holds %d of %d points", covered, n))
	}
	return decomposeSeeded(m, seedL)
}

func checkMatrix(pts []geom.Point, m *domgraph.Matrix) int {
	n := m.N()
	if n != len(pts) {
		panic(fmt.Sprintf("chains: matrix covers %d points, input has %d", n, len(pts)))
	}
	return n
}

// greedySeedBitset builds a best-fit greedy chain cover directly on
// the packed DAG rows, returned in matching form: seedL[u] = the point
// directly below u in its chain, or -1 at a chain bottom. Points are
// processed in sumLexOrder, a linear extension of the DAG, and each
// attaches above the open chain top its DAG row covers that came
// latest in that order — the highest top it can reach, which leaves
// the lower tops open for the lower points still to come. First-fit
// (the lowest-index top) left ≈5% more seed chains on planted noisy
// d=3 sets and ran a quarter more matching phases (DESIGN.md §13).
// The open tops are kept as a list linked in processing order and
// walked from the latest down, one bit test of the row per top, so a
// point costs at most one test per open top and a low-width set never
// reads a row past its few tops. With hundreds of open tops, ANDing
// the whole row against an open-top bitset would halve the seed, but
// that is ≈3% of a noisy train, below what the benchmark resolves
// (bench_results.md K11). Validity needs no ordering assumption:
// every link is a real DAG edge, so the matching always decodes into
// disjoint ascending chains.
func greedySeedBitset(pts []geom.Point, m *domgraph.Matrix) []int {
	n := m.N()
	seedL := make([]int, n)
	for i := range seedL {
		seedL[i] = -1
	}
	prev := make([]int32, n) // the open-top list, in order; last is the latest
	next := make([]int32, n)
	last := int32(-1)
	for _, idx := range sumLexOrder(pts) {
		row := m.DAGRow(idx)
		for v := last; v >= 0; v = prev[v] {
			if row[v>>6]>>(uint(v)&63)&1 == 0 {
				continue
			}
			seedL[idx] = int(v) // v is no longer a top
			if p := prev[v]; p >= 0 {
				next[p] = next[v]
			}
			if x := next[v]; x >= 0 {
				prev[x] = prev[v]
			} else {
				last = prev[v]
			}
			break
		}
		// idx tops its chain either way, and is the latest top so far.
		prev[idx], next[idx] = last, -1
		if last >= 0 {
			next[last] = int32(idx)
		}
		last = int32(idx)
	}
	return seedL
}

// decomposeSeeded finishes the Lemma 6 construction from a seed
// matching: certificate attempt, Hopcroft–Karp, chain walk, König
// antichain.
func decomposeSeeded(m *domgraph.Matrix, seedL []int) (Decomposition, DecomposeStats) {
	n := m.N()
	var st DecomposeStats

	seedSize := 0
	for _, v := range seedL {
		if v != -1 {
			seedSize++
		}
	}
	st.SeedChains = n - seedSize
	// Optimality certificate: the seed's c chains are minimum iff some
	// antichain has c points (Dilworth). The chain bottoms and chain
	// tops are the natural candidates — one point per chain, free on
	// the left resp. right side of the matching — and each costs only
	// an O(c·n/64) incomparability check. A hit skips Hopcroft–Karp
	// entirely; a miss costs nothing beyond the single certifying BFS
	// the matching would run anyway.
	for _, anti := range [2][]int{seedBottoms(seedL), seedTops(seedL, n)} {
		if !m.IsAntichain(anti) {
			continue
		}
		st.Width = st.SeedChains
		st.CertEarlyExit = true
		mm := matchingFromSeed(seedL, n, seedSize)
		chainSets := chainsFromMatching(mm, n)
		sort.Ints(anti)
		return Decomposition{Chains: chainSets, Width: len(chainSets), Antichain: anti}, st
	}

	// Bipartite reduction for minimum path cover: left copy u matched
	// to right copy v encodes using DAG edge u -> v (u directly above v
	// in its chain). Cover size = n - |matching|. The kernel's DAG
	// rows are adopted as the packed adjacency without copying, marked
	// transitive so the matcher's closure rules apply.
	b := matching.BitsetFromDAG(n, m.DAGBits())
	mm, mst := matching.MaxMatchingBitsetWarm(b, seedL)
	st.Phases, st.Augmentations = mst.Phases, mst.Augmentations

	chainSets := chainsFromMatching(mm, n)
	st.Width = len(chainSets)

	// König: complement of a minimum vertex cover is a maximum
	// independent set; a point outside the cover on both sides has no
	// incident DAG edge inside the independent set, i.e. the selected
	// points are pairwise incomparable — a maximum antichain.
	coverL, coverR := matching.MinVertexCoverBitset(b, mm)
	var anti []int
	for i := 0; i < n; i++ {
		if !coverL[i] && !coverR[i] {
			anti = append(anti, i)
		}
	}
	if len(anti) != len(chainSets) {
		panic(fmt.Sprintf("chains: antichain size %d != chain count %d", len(anti), len(chainSets)))
	}
	if !m.IsAntichain(anti) {
		panic("chains: extracted certificate is not an antichain")
	}
	sort.Ints(anti)
	return Decomposition{Chains: chainSets, Width: len(chainSets), Antichain: anti}, st
}

// seedBottoms returns the chain bottoms of a seed matching: left
// copies with nothing below them.
func seedBottoms(seedL []int) []int {
	var bottoms []int
	for u, v := range seedL {
		if v == -1 {
			bottoms = append(bottoms, u)
		}
	}
	return bottoms
}

// seedTops returns the chain tops: right copies with nothing above
// them.
func seedTops(seedL []int, n int) []int {
	below := make([]bool, n)
	for _, v := range seedL {
		if v != -1 {
			below[v] = true
		}
	}
	var tops []int
	for v := 0; v < n; v++ {
		if !below[v] {
			tops = append(tops, v)
		}
	}
	return tops
}

// matchingFromSeed materializes a full Matching from a seed the
// certificate proved optimal, without touching Hopcroft–Karp.
func matchingFromSeed(seedL []int, n, size int) matching.Matching {
	matchL := make([]int, n)
	matchR := make([]int, n)
	for i := range matchR {
		matchR[i] = -1
	}
	copy(matchL, seedL)
	for u, v := range seedL {
		if v != -1 {
			matchR[v] = u
		}
	}
	return matching.Matching{MatchLeft: matchL, MatchRight: matchR, Size: size}
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
// antichain, equivalently the minimum number of chains covering it.
// At d ≥ 3 past DefaultExactDecomposeLimit points it returns the greedy
// cover's chain count instead, an upper bound (see DecomposeRoute).
func Width(pts []geom.Point) int {
	if len(pts) == 0 {
		return 0
	}
	if len(pts[0]) == 2 {
		return Width2D(pts)
	}
	return Decompose(pts).Width
}

// Width2D computes the dominance width of a 2-D point set in
// O(n log n) time: after sorting by (x asc, y asc), a maximum antichain
// is exactly a longest strictly-decreasing subsequence of y values
// (two 2-D points are incomparable iff one is strictly left of and
// strictly above the other; equal-x points are always comparable).
func Width2D(pts []geom.Point) int {
	n := len(pts)
	if n == 0 {
		return 0
	}
	if len(pts[0]) != 2 {
		panic(fmt.Sprintf("chains: Width2D on %d-dimensional points", len(pts[0])))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := pts[order[a]], pts[order[b]]
		if pa[0] != pb[0] {
			return pa[0] < pb[0]
		}
		return pa[1] < pb[1]
	})
	// Longest strictly decreasing subsequence of y == longest strictly
	// increasing subsequence of -y, via patience sorting.
	tails := make([]float64, 0, n) // tails[k] = max(-y) achievable ending a length-k+1 subsequence... (min tail)
	for _, idx := range order {
		v := -pts[idx][1]
		// Find first tail >= v (strict increase required).
		lo, hi := 0, len(tails)
		for lo < hi {
			mid := (lo + hi) / 2
			if tails[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(tails) {
			tails = append(tails, v)
		} else {
			tails[lo] = v
		}
	}
	return len(tails)
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
	order := sumLexOrder(pts)
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

// sumLexOrder returns point indices sorted into a linear extension of
// dominance: ascending coordinate sum, ties broken lexicographically,
// then by index. The sum clamps ±Inf coordinates to ±MaxFloat64, so a
// point holding both infinities sums to a number, not NaN, and since
// rounded floating-point addition is monotone, p ⪰ q still implies
// sum(p) ≥ sum(q). GreedyDecompose and the warm-start seed builder
// share it; the seed reads a point's position in it as its height.
func sumLexOrder(pts []geom.Point) []int {
	type keyed struct {
		sum float64
		idx int
	}
	recs := make([]keyed, len(pts))
	for i, p := range pts {
		recs[i].idx = i
		for _, x := range p {
			recs[i].sum += max(-math.MaxFloat64, min(x, math.MaxFloat64))
		}
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
