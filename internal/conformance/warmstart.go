package conformance

import (
	"fmt"
	"math"
	"reflect"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/matching"
)

// CheckDecomposeWarmStart holds every decomposition path to the
// scalar Lemma 6 oracle (chains.DecomposeGenericScalar: pairwise
// dominance tests and slice Hopcroft–Karp, sharing no code with the
// bitset matcher), run once per instance. The oracle must itself be a
// valid decomposition with a certifying antichain. Over the
// kernel-built matrix and the scalar BuildNaive one, the warm-started
// matching must give the oracle's width, a valid decomposition and a
// certifying antichain of exactly that width, warm-start accounting
// that balances (augmentations = seed chains − width), and
// convergence from a caller-supplied greedy cover through
// DecomposeMatrixSeeded. The matcher's closure rules must change
// nothing: over the same DAG rows and the same seed — the greedy
// cover's, and none — the transitive graph (BitsetFromDAG) returns the
// generic graph's matching and stats, scanning no more rows. The
// greedy cover must be valid and no narrower, and checkRoute holds the
// route to the oracle's width.
// ±Inf instances exercise the full differential; NaN coordinates are
// outside the decomposition domain — geom.Dominates makes NaN points
// mutually dominating without being Equal (NaN != NaN), so the "DAG"
// acquires 2-cycles and no chain partition exists — and are skipped,
// matching the problem/online checks' hasNonFinite gates. The NaN
// corner fixtures still run the check to pin that it declines
// gracefully instead of panicking.
func CheckDecomposeWarmStart(in Instance) error {
	if in.N() == 0 {
		return nil
	}
	pts := in.Pts()
	if hasNaNPoints(pts) {
		return nil
	}

	type matSource struct {
		name string
		m    *domgraph.Matrix
	}
	// BuildNaive must agree with the parallel sweep builder, ±Inf
	// inputs included.
	sources := []matSource{
		{"dense", domgraph.Build(pts)},
		{"dense-naive", domgraph.BuildNaive(pts)},
	}

	scalar := chains.DecomposeGenericScalar(pts)
	if err := validateDecomposition("scalar", pts, scalar); err != nil {
		return err
	}
	greedy := chains.GreedyDecompose(pts)
	if err := chains.ValidateDecomposition(pts, greedy); err != nil {
		return fmt.Errorf("greedy: %w", err)
	}
	if len(greedy) < scalar.Width {
		return fmt.Errorf("greedy produced %d chains, below the width %d (impossible)", len(greedy), scalar.Width)
	}
	for _, src := range sources {
		warm, st := chains.DecomposeMatrixStats(pts, src.m)
		if warm.Width != scalar.Width {
			return fmt.Errorf("%s: warm width %d != scalar width %d", src.name, warm.Width, scalar.Width)
		}
		if err := validateDecomposition(src.name+"-warm", pts, warm); err != nil {
			return err
		}
		if st.Width != warm.Width {
			return fmt.Errorf("%s: stats width %d != decomposition width %d", src.name, st.Width, warm.Width)
		}
		if st.Augmentations != st.SeedChains-st.Width {
			return fmt.Errorf("%s: %d augmentations for seed %d -> width %d",
				src.name, st.Augmentations, st.SeedChains, st.Width)
		}
		if st.CertEarlyExit && (st.Phases != 0 || st.Augmentations != 0) {
			return fmt.Errorf("%s: certificate early exit still ran matching: %+v", src.name, st)
		}

		// A caller-supplied greedy cover must converge identically, with
		// the augmentation count bounded by its seed gap.
		seeded, sst := chains.DecomposeMatrixSeeded(pts, src.m, greedy)
		if seeded.Width != scalar.Width {
			return fmt.Errorf("%s: greedy-seeded width %d != scalar width %d", src.name, seeded.Width, scalar.Width)
		}
		if sst.Augmentations > sst.SeedChains-seeded.Width {
			return fmt.Errorf("%s: greedy-seeded %d augmentations exceed seed gap %d",
				src.name, sst.Augmentations, sst.SeedChains-seeded.Width)
		}
		if err := validateDecomposition(src.name+"-seeded", pts, seeded); err != nil {
			return err
		}
		if err := checkClosureRules(src.m, greedy); err != nil {
			return fmt.Errorf("%s: %w", src.name, err)
		}
	}

	return checkRoute(in, scalar.Width)
}

// checkRoute holds the route every caller takes to the oracle's width:
// chains.Decompose (1-D/2-D fast paths included) with a valid
// certificate, and Width. Under a limit below n the
// route must keep the fast paths at d ≤ 2 and fall back at d ≥ 3 to a
// valid greedy cover, no narrower, with no antichain or matrix.
func checkRoute(in Instance, width int) error {
	pts := in.Pts()
	route := chains.Decompose(pts)
	if err := validateDecomposition("route", pts, route); err != nil {
		return err
	}
	if route.Width != width || chains.Width(pts) != width {
		return fmt.Errorf("route width %d, Width %d; scalar width %d", route.Width, chains.Width(pts), width)
	}
	limit := in.N() - 1
	if limit == 0 {
		limit = -1 // 0 selects the default limit
	}
	r := chains.DecomposeRoute(pts, limit)
	if in.Dim() <= 2 {
		if r.Path != chains.PathFast2D || r.Width != width {
			return fmt.Errorf("limited route at d=%d: path %s width %d", in.Dim(), r.Path, r.Width)
		}
		return nil
	}
	if err := chains.ValidateDecomposition(pts, r.Chains); err != nil {
		return fmt.Errorf("limited route: %w", err)
	}
	if r.Path != chains.PathGreedyFallback || r.Exact() || r.Antichain != nil || r.Matrix != nil || r.Width < width {
		return fmt.Errorf("limited route: path %s, exact %v, %d-point antichain, matrix %v, width %d (scalar %d)",
			r.Path, r.Exact(), len(r.Antichain), r.Matrix != nil, r.Width, width)
	}
	return nil
}

// checkClosureRules runs Hopcroft–Karp over m's DAG triangle twice, as
// a transitive graph and as a generic one, from cover's seed matching
// (in the matrix's positions) and from an empty one, and requires
// identical matchings and stats bar RowScans, which the transitive
// graph may only lower.
func checkClosureRules(m *domgraph.Matrix, cover [][]int) error {
	n := m.N()
	seedL := make([]int, n)
	for _, chain := range cover {
		for k, idx := range chain {
			seedL[m.Position(idx)] = -1
			if k > 0 && m.Edge(idx, chain[k-1]) {
				seedL[m.Position(idx)] = m.Position(chain[k-1])
			}
		}
	}
	rows, off := m.DAGRows()
	gen := matching.BitsetFromRows(n, n, rows, off)
	dag := matching.BitsetFromDAG(n, rows, off)
	for _, seed := range [][]int{seedL, nil} {
		mg, sg := matching.MaxMatchingBitsetWarm(gen, seed)
		md, sd := matching.MaxMatchingBitsetWarm(dag, seed)
		if !reflect.DeepEqual(mg, md) {
			return fmt.Errorf("closure rules changed the matching (seeded: %v)", seed != nil)
		}
		if sd.RowScans > sg.RowScans {
			return fmt.Errorf("closure rules scanned %d rows, generic path %d", sd.RowScans, sg.RowScans)
		}
		if sd.RowScans = sg.RowScans; sd != sg {
			return fmt.Errorf("closure rules changed the stats: %+v, generic %+v", sd, sg)
		}
	}
	return nil
}

// hasNaNPoints reports whether any coordinate is NaN — the one case
// the sweep-based dominance builders do not define (±Inf is fine).
func hasNaNPoints(pts []geom.Point) bool {
	for _, p := range pts {
		for _, x := range p {
			if math.IsNaN(x) {
				return true
			}
		}
	}
	return false
}

// warmStartCornerFixtures are the static NaN/±Inf shapes the check
// must survive beyond what the random generators produce; the engine's
// corner-case pass and TestWarmStartCornerFixtures both run them.
func warmStartCornerFixtures() []Instance {
	nan, pinf, ninf := math.NaN(), math.Inf(1), math.Inf(-1)
	return []Instance{
		{
			Family:  "corner-nan-mixed",
			Points:  [][]float64{{nan, 1, 2}, {0, 1, 2}, {3, 4, 5}, {nan, nan, nan}, {3, 4, 5}},
			Labels:  []int{0, 1, 0, 1, 0},
			Weights: []float64{1, 1, 1, 1, 1},
		},
		{
			Family:  "corner-inf-chain",
			Points:  [][]float64{{ninf, ninf, ninf}, {0, 0, 0}, {pinf, pinf, pinf}, {pinf, 0, ninf}},
			Labels:  []int{0, 0, 1, 1},
			Weights: []float64{1, 2, 1, 2},
		},
		{
			Family:  "corner-inf-nan",
			Points:  [][]float64{{pinf, nan, 0}, {ninf, 0, nan}, {nan, pinf, ninf}, {0, 0, 0}},
			Labels:  []int{1, 0, 1, 0},
			Weights: []float64{1, 1, 1, 1},
		},
	}
}
