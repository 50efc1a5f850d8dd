package monoclass

import (
	"math/rand"

	"monoclass/internal/baselines"
	"monoclass/internal/core"
	"monoclass/internal/passive"
	"monoclass/internal/problem"
)

// PassiveSolution is the result of OptimalPassive: an exactly optimal
// monotone classifier for a fully-labeled weighted set (Theorem 4).
type PassiveSolution = passive.Solution

// OptimalPassive solves the passive weighted monotone classification
// problem exactly (Problem 2 / Theorem 4): it returns a monotone
// classifier minimizing the weighted error over ws, in
// O(dn²) + T_maxflow(n) time via the paper's min-cut construction.
func OptimalPassive(ws WeightedSet) (PassiveSolution, error) {
	return problem.Solve(ws)
}

// OptimalError returns only the optimal weighted error k* of ws.
func OptimalError(ws WeightedSet) (float64, error) {
	sol, err := problem.Solve(ws)
	if err != nil {
		return 0, err
	}
	return sol.WErr, nil
}

// Params configures the active algorithm; see TheoryParams and
// PracticalParams for the two standard settings.
type Params = core.Params

// TheoryParams parameterizes ActiveLearn exactly as the paper's
// analysis does (Lemma 5 constant 3, φ = ε/256). The constants are
// very conservative: below roughly n = 10⁷ they make every recursion
// level probe exhaustively, which is exact but saves nothing.
func TheoryParams(epsilon, delta float64) Params { return core.TheoryParams(epsilon, delta) }

// PracticalParams keeps the algorithm's asymptotic probing cost with
// constants sized for realistic inputs; the (1+ε) guarantee is
// verified empirically at these settings (experiment E4).
func PracticalParams(epsilon, delta float64) Params { return core.PracticalParams(epsilon, delta) }

// ActiveResult is the outcome of ActiveLearn: the learned classifier,
// the weighted sample Σ it was fit on, probing statistics and phase
// timings.
type ActiveResult = core.Result

// ActiveLearn solves active monotone classification (Problem 1 /
// Theorems 2 and 3): given the unlabeled points and a label oracle, it
// returns with probability at least 1-par.Delta a monotone classifier
// whose error on the fully-labeled input is at most (1+ε)·k*, probing
// O((w/ε²)·log n·log(n/w)) labels. Randomness is drawn from rng, so
// runs are reproducible from the seed.
func ActiveLearn(pts []Point, o Oracle, par Params, rng *rand.Rand) (ActiveResult, error) {
	return core.ActiveLearn(pts, o, par, rng)
}

// Learn1D is the specialized 1-D active learner (Lemma 9): it returns
// the threshold classifier minimizing the weighted error of the
// collected sample Σ, along with Σ itself.
func Learn1D(pts []Point, o Oracle, par Params, rng *rand.Rand) (Threshold1D, WeightedSet, error) {
	return core.Learn1D(pts, o, par, rng)
}

// BaselineOutcome is the result shape shared by the baseline learners.
type BaselineOutcome = baselines.Outcome

// FullProbe reveals every label and solves the passive problem
// exactly: the Θ(n)-probe reference learner.
func FullProbe(pts []Point, o Oracle) (BaselineOutcome, error) {
	return baselines.FullProbe(pts, o)
}

// UniformERM probes a uniform sample of m points and returns the
// empirical-risk-minimizing monotone classifier on the sample: the
// passive-sampling baseline with additive (not multiplicative) error
// guarantees.
func UniformERM(pts []Point, o Oracle, m int, rng *rand.Rand) (BaselineOutcome, error) {
	return baselines.UniformERM(pts, o, m, rng)
}

// RBS is the randomized-binary-search baseline (a reconstruction of
// the Tao'18 learner): O(w·log(n/w)) expected probes, ~2k* expected
// error.
func RBS(pts []Point, o Oracle, rng *rand.Rand) (BaselineOutcome, error) {
	return baselines.RBS(pts, o, rng)
}
