package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"monoclass/internal/chains"
	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/oracle"
	"monoclass/internal/problem"
)

// Result is the outcome of the active algorithm.
type Result struct {
	// Classifier is the learned monotone classifier, total on R^d.
	Classifier *classifier.AnchorSet
	// Sigma is the fully-labeled weighted sample Σ = ∪ Σ_i of
	// Lemma 14; the classifier minimizes w-err_Σ over all monotone
	// classifiers (Theorem 3's reduction to Problem 2).
	Sigma geom.WeightedSet
	// SigmaWErr is w-err_Σ(Classifier), the minimized surrogate.
	SigmaWErr float64
	// Width is the chain count of the cover the input was probed
	// along: the dominance width w when ExactWidth holds, an upper
	// bound on it otherwise.
	Width int
	// ExactWidth reports whether the cover is minimum: false on the
	// greedy fallback and for a caller-supplied cover.
	ExactWidth bool
	// Path names how the cover was built: the route's path
	// (chains.Path*), or PathSupplied.
	Path string
	// Probes is the number of distinct points probed when the oracle
	// was instrumented by this call (see ActiveLearn); -1 otherwise.
	Probes int
	// Timing breaks down the phases of Theorem 3's cost.
	Timing Timing
}

// PathSupplied is Result.Path for a cover passed to ActiveLearnChains.
const PathSupplied = "supplied"

// Timing records wall-clock per phase of the pipeline.
type Timing struct {
	Decompose time.Duration // chain decomposition (Lemma 6)
	Probe     time.Duration // per-chain 1-D runs (Section 3)
	Solve     time.Duration // passive solve on Σ over P's cover (Theorem 4)
}

// ActiveLearn runs the full Theorem 2+3 pipeline on the unlabeled
// point set pts against a label oracle:
//
//  1. decompose pts into w chains (Lemma 6) through
//     chains.DecomposeRoute — past its limit at d ≥ 3, a greedy cover;
//  2. run the Section 3 sampler on each chain with failure budget
//     Delta/w, collecting Σ = ∪ Σ_i;
//  3. solve passive weighted classification on Σ (Theorem 4) to find
//     the monotone classifier minimizing w-err_Σ, over P's cover
//     restricted to Σ ⊆ P: a valid cover, over which the Theorem 4
//     network is exact (problem.PrepareCover).
//
// With probability at least 1-Delta the result is (1+ε)-approximate:
// err_P(h) <= (1+ε)·k*. The expected probing cost is
// O((w/ε²)·log n·log(n/w)).
//
// The supplied oracle is wrapped in a reveal cache so that repeat
// draws of one point cost a single probe; Result.Probes reports the
// distinct-probe count.
func ActiveLearn(pts []geom.Point, o oracle.Oracle, par Params, rng *rand.Rand) (Result, error) {
	return ActiveLearnChains(pts, o, par, rng, nil)
}

// ActiveLearnChains is ActiveLearn with a caller-supplied chain
// decomposition (each chain a slice of point indices in ascending
// dominance order, jointly partitioning the input), along which Σ is
// solved too. Passing nil computes the decomposition as usual. A
// suboptimal decomposition (more chains than the dominance width) is
// still correct — every chain run keeps its per-chain guarantee — but
// pays proportionally more probes, which the greedy-vs-matching
// ablation (experiment A1) quantifies.
func ActiveLearnChains(pts []geom.Point, o oracle.Oracle, par Params, rng *rand.Rand, chainSets [][]int) (Result, error) {
	if err := par.validate(); err != nil {
		return Result{}, err
	}
	if len(pts) == 0 {
		return Result{}, fmt.Errorf("core: empty input set")
	}
	if o.Len() != len(pts) {
		return Result{}, fmt.Errorf("core: oracle covers %d points, input has %d", o.Len(), len(pts))
	}
	cache := oracle.NewCaching(o)

	start := time.Now()
	var res Result
	if chainSets == nil {
		route := chains.DecomposeRoute(pts, 0)
		chainSets, res.Path, res.ExactWidth = route.Chains, route.Path, route.Exact()
	} else {
		if err := chains.ValidateDecomposition(pts, chainSets); err != nil {
			return Result{}, fmt.Errorf("core: supplied decomposition invalid: %w", err)
		}
		res.Path = PathSupplied
	}
	res.Width = len(chainSets)
	res.Timing.Decompose = time.Since(start)

	// Split the failure budget evenly over the w per-chain runs (the
	// paper uses δ = 1/(w·n²) per chain to reach 1 - 1/n² overall).
	chainPar := par
	chainPar.Delta = par.Delta / float64(res.Width)

	start = time.Now()
	sigma, err := runChainsParallel(cache, chainSets, chainPar, rng)
	if err != nil {
		return Result{}, err
	}
	res.Timing.Probe = time.Since(start)
	res.Probes = cache.Distinct()

	// Materialize Σ as a weighted point set and solve Problem 2 on it,
	// over P's cover restricted to Σ.
	ws := make(geom.WeightedSet, len(sigma))
	for i, wl := range sigma {
		ws[i] = geom.WeightedPoint{P: pts[wl.Item], Label: wl.Label, Weight: wl.Weight}
	}
	ws, entry := ws.Coalesce()

	start = time.Now()
	cover := restrictCover(chainSets, sigma, entry, len(pts), len(ws))
	sp, err := problem.PrepareCover(ws, chains.Decomposition{Chains: cover, Width: len(cover)}, false)
	if err != nil {
		return Result{}, fmt.Errorf("core: preparing Σ: %w", err)
	}
	sol, err := sp.Solve()
	if err != nil {
		return Result{}, fmt.Errorf("core: passive solve on Σ: %w", err)
	}
	res.Timing.Solve = time.Since(start)
	res.Classifier = sol.Classifier
	res.Sigma = ws
	res.SigmaWErr = sol.WErr
	return res, nil
}

// restrictCover restricts P's chain cover to Σ's m coalesced entries
// (sigma[k], a P item, merged into entry[k]). Each entry takes the
// first cover position of an item merged into it; a subsequence of a
// chain is a chain, so the result is a valid cover of Σ.
func restrictCover(cover [][]int, sigma []WeightedLabel, entry []int, n, m int) [][]int {
	at := make([]int32, n) // P item → its Σ entry + 1; 0 when not sampled
	for k, wl := range sigma {
		at[wl.Item] = int32(entry[k]) + 1
	}
	taken := make([]bool, m)
	var out [][]int
	for _, chain := range cover {
		var c []int
		for _, item := range chain {
			if e := at[item] - 1; e >= 0 && !taken[e] {
				taken[e] = true
				c = append(c, int(e))
			}
		}
		if len(c) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Learn1D is the Lemma 9 entry point for one-dimensional inputs: it
// runs the Section 3 sampler directly on the coordinate axis and
// returns the threshold classifier minimizing w-err_Σ, together with
// Σ itself.
func Learn1D(pts []geom.Point, o oracle.Oracle, par Params, rng *rand.Rand) (classifier.Threshold1D, geom.WeightedSet, error) {
	if err := par.validate(); err != nil {
		return classifier.Threshold1D{}, nil, err
	}
	if len(pts) == 0 {
		return classifier.Threshold1D{Tau: math.Inf(-1)}, nil, nil
	}
	for i, p := range pts {
		if len(p) != 1 {
			return classifier.Threshold1D{}, nil, fmt.Errorf("core: point %d is %d-dimensional, want 1", i, len(p))
		}
	}
	if o.Len() != len(pts) {
		return classifier.Threshold1D{}, nil, fmt.Errorf("core: oracle covers %d points, input has %d", o.Len(), len(pts))
	}
	cache := oracle.NewCaching(o)

	items := make([]int, len(pts))
	for i := range items {
		items[i] = i
	}
	keys := make([]float64, len(pts))
	for i, p := range pts {
		keys[i] = p[0]
	}
	sortByKeys(items, keys)

	sigma, err := Run1D(cache, items, keys, par, rng)
	if err != nil {
		return classifier.Threshold1D{}, nil, err
	}
	ws := make(geom.WeightedSet, len(sigma))
	for i, wl := range sigma {
		ws[i] = geom.WeightedPoint{P: pts[wl.Item], Label: wl.Label, Weight: wl.Weight}
	}
	ws, _ = ws.Coalesce()
	h, _ := classifier.BestThreshold1D(ws)
	return h, ws, nil
}

// sortByKeys sorts items and keys jointly by ascending key, keeping
// input order for equal keys.
func sortByKeys(items []int, keys []float64) {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	newItems := make([]int, len(items))
	newKeys := make([]float64, len(keys))
	for i, j := range idx {
		newItems[i] = items[j]
		newKeys[i] = keys[j]
	}
	copy(items, newItems)
	copy(keys, newKeys)
}
