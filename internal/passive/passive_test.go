package passive

import (
	"math"
	"math/rand"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/classifier"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
)

func pointsOf(ws geom.WeightedSet) []geom.Point {
	pts := make([]geom.Point, len(ws))
	for i := range ws {
		pts[i] = ws[i].P
	}
	return pts
}

// solve builds ws's network over the dense matrix and a minimum chain
// cover, as internal/problem does in dense mode, and solves it with
// solver (the default engine when nil).
func solve(ws geom.WeightedSet, solver maxflow.Solver) (Solution, error) {
	pts := pointsOf(ws)
	return Prepare(ws, domgraph.Build(pts), chains.Decompose(pts).Chains).Resolve(solver)
}

// solveLiteral solves the literal Section 5.1 construction.
func solveLiteral(ws geom.WeightedSet) (Solution, error) {
	pp, err := PrepareLiteral(ws)
	if err != nil {
		return Solution{}, err
	}
	return pp.Resolve(nil)
}

func randWeightedSet(rng *rand.Rand, n, d, grid int, intWeights bool) geom.WeightedSet {
	ws := make(geom.WeightedSet, n)
	for i := range ws {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = float64(rng.Intn(grid))
		}
		w := 1.0
		if intWeights {
			w = float64(1 + rng.Intn(9))
		} else {
			w = rng.Float64() + 0.1
		}
		ws[i] = geom.WeightedPoint{P: p, Label: geom.Label(rng.Intn(2)), Weight: w}
	}
	return ws
}

// checkSolution verifies internal consistency of a solution: the
// classifier is monotone on the input points, reproduces its own
// assignment, and its measured w-err equals the reported optimum.
func checkSolution(t *testing.T, ws geom.WeightedSet, sol Solution) {
	t.Helper()
	pts := make([]geom.Point, len(ws))
	for i := range ws {
		pts[i] = ws[i].P
	}
	if ok, p, q := classifier.IsMonotoneOn(pts, sol.Classifier); !ok {
		t.Fatalf("solution classifier not monotone: %v vs %v", p, q)
	}
	measured := geom.WErr(ws, sol.Classifier.Classify)
	if math.Abs(measured-sol.WErr) > 1e-9 {
		t.Fatalf("reported WErr %g but classifier achieves %g", sol.WErr, measured)
	}
	for i := range ws {
		if sol.Classifier.Classify(ws[i].P) != sol.Assignment[i] {
			t.Fatalf("assignment[%d] inconsistent with classifier", i)
		}
	}
}

func TestSolveTrivialCases(t *testing.T) {
	// Already monotone: zero error.
	ws := geom.WeightedSet{
		{P: geom.Point{0, 0}, Label: geom.Negative, Weight: 1},
		{P: geom.Point{2, 2}, Label: geom.Positive, Weight: 1},
	}
	sol, err := solve(ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, ws, sol)
	if sol.WErr != 0 {
		t.Errorf("WErr = %g, want 0", sol.WErr)
	}
	if sol.Stats.Contending != 0 {
		t.Errorf("Contending = %d, want 0", sol.Stats.Contending)
	}

	// Single conflicting pair: cheaper side flips.
	ws = geom.WeightedSet{
		{P: geom.Point{1, 1}, Label: geom.Negative, Weight: 5},
		{P: geom.Point{0, 0}, Label: geom.Positive, Weight: 2},
	}
	sol, err = solve(ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, ws, sol)
	if sol.WErr != 2 {
		t.Errorf("WErr = %g, want 2 (flip the weight-2 point)", sol.WErr)
	}
	if sol.Stats.Contending != 2 {
		t.Errorf("Contending = %d, want 2", sol.Stats.Contending)
	}
}

// The standalone references validate their own input; Prepare trusts
// internal/problem to have done so.
func TestSolveEmptyRejected(t *testing.T) {
	bad := geom.WeightedSet{{P: geom.Point{1}, Label: 0, Weight: -1}}
	if _, err := PrepareLiteral(nil); err == nil {
		t.Error("empty input accepted by the literal construction")
	}
	if _, err := NaiveSolve(nil); err == nil {
		t.Error("empty input accepted by naive")
	}
	if _, err := PrepareLiteral(bad); err == nil {
		t.Error("invalid weight accepted by the literal construction")
	}
	if _, err := NaiveSolve(bad); err == nil {
		t.Error("invalid weight accepted by naive")
	}
}

func TestSolveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(10)
		d := 1 + rng.Intn(3)
		ws := randWeightedSet(rng, n, d, 4, true)
		sol, err := solve(ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, ws, sol)
		naive, err := NaiveSolve(ws)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sol.WErr-naive.WErr) > 1e-9 {
			t.Fatalf("trial %d: flow %g != naive %g (ws=%v)", trial, sol.WErr, naive.WErr, ws)
		}
	}
}

func TestSolveMatchesBestThreshold1D(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		ws := randWeightedSet(rng, n, 1, 10, false)
		sol, err := solve(ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, ws, sol)
		_, want := classifier.BestThreshold1D(ws)
		if math.Abs(sol.WErr-want) > 1e-9 {
			t.Fatalf("trial %d: flow %g != threshold sweep %g", trial, sol.WErr, want)
		}
	}
}

func TestSolveAllSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	// Every registered max-flow implementation must yield the same
	// optimum; new registry entries are covered automatically.
	impls := maxflow.Solvers()
	for trial := 0; trial < 40; trial++ {
		ws := randWeightedSet(rng, 3+rng.Intn(20), 2, 5, true)
		var vals []float64
		for _, name := range maxflow.SolverNames() {
			sol, err := solve(ws, impls[name])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkSolution(t, ws, sol)
			vals = append(vals, sol.WErr)
		}
		for i := 1; i < len(vals); i++ {
			if math.Abs(vals[0]-vals[i]) > 1e-9 {
				t.Fatalf("trial %d: solver disagreement %v", trial, vals)
			}
		}
	}
}

// No monotone classifier can beat the optimum: sample random anchor
// classifiers and verify none does better than the reported WErr.
func TestSolveOptimalityAgainstRandomClassifiers(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 30; trial++ {
		ws := randWeightedSet(rng, 20, 2, 6, true)
		sol, err := solve(ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 50; probe++ {
			na := 1 + rng.Intn(4)
			anchors := make([]geom.Point, na)
			for a := range anchors {
				anchors[a] = geom.Point{float64(rng.Intn(7)), float64(rng.Intn(7))}
			}
			h := classifier.MustAnchorSet(2, anchors)
			if got := geom.WErr(ws, h.Classify); got < sol.WErr-1e-9 {
				t.Fatalf("trial %d: random classifier beats 'optimal' (%g < %g)", trial, got, sol.WErr)
			}
		}
	}
}

func TestSolveDuplicateConflictingPoints(t *testing.T) {
	// The same coordinates with both labels force an error of the
	// lighter weight.
	ws := geom.WeightedSet{
		{P: geom.Point{1, 1}, Label: geom.Negative, Weight: 3},
		{P: geom.Point{1, 1}, Label: geom.Positive, Weight: 7},
	}
	sol, err := solve(ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, ws, sol)
	if sol.WErr != 3 {
		t.Errorf("WErr = %g, want 3", sol.WErr)
	}
}

func TestSolveAllSameLabel(t *testing.T) {
	for _, label := range []geom.Label{geom.Negative, geom.Positive} {
		ws := geom.WeightedSet{
			{P: geom.Point{0, 0}, Label: label, Weight: 1},
			{P: geom.Point{1, 1}, Label: label, Weight: 1},
			{P: geom.Point{2, 0}, Label: label, Weight: 1},
		}
		sol, err := solve(ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, ws, sol)
		if sol.WErr != 0 {
			t.Errorf("label %v: WErr = %g, want 0", label, sol.WErr)
		}
	}
}

func TestNaiveSolveSizeLimit(t *testing.T) {
	ws := randWeightedSet(rand.New(rand.NewSource(1)), 26, 2, 4, true)
	if _, err := NaiveSolve(ws); err == nil {
		t.Error("oversized naive input accepted")
	}
}

// Unweighted k* on a larger random instance must match the naive
// solver run on the same instance (unit weights), exercising the
// integer special case the active algorithm relies on.
func TestSolveUnitWeightsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(12)
		ws := randWeightedSet(rng, n, 2, 3, true)
		for i := range ws {
			ws[i].Weight = 1
		}
		sol, err := solve(ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveSolve(ws)
		if err != nil {
			t.Fatal(err)
		}
		if sol.WErr != naive.WErr {
			t.Fatalf("trial %d: %g != %g", trial, sol.WErr, naive.WErr)
		}
	}
}

// The sparse reachability network and the paper's literal dense
// construction must produce identical optima on random instances of
// every dimension.
func TestSolveSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(40)
		d := 1 + rng.Intn(4)
		ws := randWeightedSet(rng, n, d, 4, true)
		sparse, err := solve(ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := solveLiteral(ws)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sparse.WErr-dense.WErr) > 1e-9 {
			t.Fatalf("trial %d: sparse %g != dense %g (ws=%v)", trial, sparse.WErr, dense.WErr, ws)
		}
		checkSolution(t, ws, sparse)
		checkSolution(t, ws, dense)
	}
}

// The sparse construction must stay small: O(n·w) edges where the
// dense graph would need Θ(n²).
func TestSolveSparseEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	// A worst case for the dense graph: one long noisy chain, where
	// almost every pair is comparable and contending.
	n := 4000
	ws := make(geom.WeightedSet, n)
	for i := 0; i < n; i++ {
		label := geom.Label(0)
		if i >= n/2 {
			label = geom.Positive
		}
		if rng.Float64() < 0.2 {
			label ^= 1
		}
		ws[i] = geom.WeightedPoint{P: geom.Point{float64(i), float64(i)}, Label: label, Weight: 1}
	}
	sol, err := solve(ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Width is 1: the sparse graph should hold ~n finite + ~n infinite
	// edges, nowhere near the ~n²/8 dense pairs.
	if sol.Stats.GraphEdges > 5*n {
		t.Errorf("sparse graph has %d edges on a width-1 instance of %d points", sol.Stats.GraphEdges, n)
	}
	// And it must still be exactly optimal (cross-check via 1-D sweep:
	// width-1 chains are a 1-D problem in disguise).
	oneD := make(geom.WeightedSet, n)
	for i, wp := range ws {
		oneD[i] = geom.WeightedPoint{P: geom.Point{wp.P[0]}, Label: wp.Label, Weight: wp.Weight}
	}
	_, want := classifier.BestThreshold1D(oneD)
	if math.Abs(sol.WErr-want) > 1e-9 {
		t.Errorf("sparse optimum %g != 1-D sweep %g", sol.WErr, want)
	}
}
