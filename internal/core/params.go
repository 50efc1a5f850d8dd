// Package core implements the paper's primary contribution: the active
// monotone-classification algorithm of Theorems 2 and 3.
//
// Section 3 (active1d.go) builds, for a totally ordered point sequence,
// a fully-labeled weighted sample Σ whose weighted error function
// w-err_Σ tracks err_P up to a (1 ± ε/4) factor plus a shared unknown
// offset Δ — the ε-comparison property. Section 4 (multidim.go) runs
// that machinery on each chain of chains.DecomposeRoute's cover and
// solves Theorem 4 on the union Σ of the per-chain samples over that
// cover restricted to Σ, yielding a (1+ε)-approximate monotone
// classifier with O((w/ε²)·log n·log(n/w)) probes, with high
// probability (w grows to the greedy cover's chain count past the
// exact-decomposition limit).
package core

import (
	"fmt"
	"math"
)

// Params configures the active algorithm. The paper's analysis fixes
// the sampling constants (Lemma 5's multiplier 3 and the φ = ε/256
// absolute-error target); those values are astronomically conservative
// in practice, so they are exposed here. TheoryParams reproduces the
// paper verbatim; PracticalParams keeps the same asymptotic form with
// constants small enough to show the probing-cost separation at
// laptop-scale n (see DESIGN.md §2.3). Whenever a level's sample size
// reaches the level's population, the algorithm probes exhaustively
// and returns exact error counts, so smaller constants can only
// degrade the approximation guarantee, never correctness of the
// mechanics.
type Params struct {
	// Epsilon is the approximation slack: the returned classifier's
	// error is at most (1+Epsilon)·k* with high probability. Values
	// are clamped to (0, 1] as in Theorem 2; Epsilon <= 0 requests
	// exhaustive probing (exact optimum, n probes).
	Epsilon float64
	// Delta is the allowed failure probability of the whole run.
	Delta float64
	// SampleConstant is Lemma 5's multiplicative constant (paper: 3).
	SampleConstant float64
	// PhiDivisor sets the absolute-error target φ = Epsilon/PhiDivisor
	// for the g1/g2 estimators (paper: 256).
	PhiDivisor float64
	// BaseCase is the recursion cutoff below which a level is probed
	// exhaustively (paper: 7).
	BaseCase int
	// Trace, when non-nil, receives one LevelTrace per recursion
	// level — a diagnostic window onto the Section 3 framework (see
	// Tracer). It must be safe for concurrent calls when used with
	// the multi-dimensional pipeline.
	Trace Tracer
}

// TheoryParams returns the paper's exact parameterization.
func TheoryParams(epsilon, delta float64) Params {
	return Params{
		Epsilon:        epsilon,
		Delta:          delta,
		SampleConstant: 3,
		PhiDivisor:     256,
		BaseCase:       7,
	}
}

// PracticalParams returns a parameterization with the same asymptotic
// probing cost but constants sized for experiments: φ = ε/8 and a
// Lemma-5 constant of 0.15. The looser constants widen the paper's
// guaranteed approximation slack by a constant factor; experiment E4
// verifies empirically that the (1+ε) bound still holds at these
// settings.
func PracticalParams(epsilon, delta float64) Params {
	return Params{
		Epsilon:        epsilon,
		Delta:          delta,
		SampleConstant: 0.15,
		PhiDivisor:     8,
		BaseCase:       7,
	}
}

// validate normalizes and checks the parameters.
func (p *Params) validate() error {
	if math.IsNaN(p.Epsilon) {
		return fmt.Errorf("core: epsilon is NaN")
	}
	if p.Epsilon > 1 {
		p.Epsilon = 1
	}
	if p.Delta <= 0 || p.Delta > 1 {
		return fmt.Errorf("core: delta %g outside (0,1]", p.Delta)
	}
	if p.SampleConstant <= 0 {
		return fmt.Errorf("core: sample constant %g must be positive", p.SampleConstant)
	}
	if p.PhiDivisor < 8 {
		// φ = Epsilon/PhiDivisor must stay below the 1/4 threshold in
		// the level bar |P|·(1/4 - φ); divisor 8 keeps φ <= 1/8.
		return fmt.Errorf("core: phi divisor %g must be at least 8", p.PhiDivisor)
	}
	if p.BaseCase < 1 {
		return fmt.Errorf("core: base case %d must be at least 1", p.BaseCase)
	}
	return nil
}

// exhaustive reports whether the parameters request exact probing.
func (p Params) exhaustive() bool { return p.Epsilon <= 0 }

// maxDepth returns the recursion depth bound h: each level shrinks the
// population to at most 5/8 of its size (Lemma 10), so h = O(log n).
func maxDepth(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log(float64(n))/math.Log(8.0/5.0))) + 1
}
