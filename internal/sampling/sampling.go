// Package sampling implements the estimation machinery of Section 2 of
// the paper: Lemma 5's sample-size bound for estimating a Bernoulli
// mean up to an absolute error, and uniform sampling with replacement
// from an index range.
//
// All functions are deterministic given the injected *rand.Rand, which
// keeps every experiment reproducible from its seed.
package sampling

import (
	"fmt"
	"math"
	"math/rand"
)

// Lemma5SampleSize returns the number t of independent Bernoulli draws
// that Lemma 5 requires so that the empirical mean deviates from the
// true mean by at least phi with probability at most delta:
//
//	t >= ceil(max(mu/phi², 1/phi) · 3·ln(2/delta))
//
// The true mean mu is unknown to callers, so the bound is evaluated at
// the worst case mu = 1 unless muUpper in (0, 1] tightens it.
// Lemma5SampleSize panics when phi or delta fall outside (0, 1].
func Lemma5SampleSize(phi, delta, muUpper float64) int {
	if phi <= 0 || phi > 1 {
		panic(fmt.Sprintf("sampling: phi %g outside (0,1]", phi))
	}
	if delta <= 0 || delta > 1 {
		panic(fmt.Sprintf("sampling: delta %g outside (0,1]", delta))
	}
	if muUpper <= 0 || muUpper > 1 {
		muUpper = 1
	}
	factor := math.Max(muUpper/(phi*phi), 1/phi)
	t := math.Ceil(factor * 3 * math.Log(2/delta))
	if t < 1 {
		return 1
	}
	if t > float64(math.MaxInt32) {
		return math.MaxInt32
	}
	return int(t)
}

// SampleSize mirrors Lemma5SampleSize but allows the multiplicative
// constant (the paper's 3) to be overridden, which the active algorithm
// uses to expose "theory" vs "practical" parameterizations. The
// asymptotic form O(phi^-2 · log(1/delta)) is unchanged.
func SampleSize(phi, delta, muUpper, c float64) int {
	if c <= 0 {
		panic(fmt.Sprintf("sampling: non-positive constant %g", c))
	}
	if phi <= 0 || phi > 1 {
		panic(fmt.Sprintf("sampling: phi %g outside (0,1]", phi))
	}
	if delta <= 0 || delta > 1 {
		panic(fmt.Sprintf("sampling: delta %g outside (0,1]", delta))
	}
	if muUpper <= 0 || muUpper > 1 {
		muUpper = 1
	}
	factor := math.Max(muUpper/(phi*phi), 1/phi)
	t := math.Ceil(factor * c * math.Log(2/delta))
	if t < 1 {
		return 1
	}
	if t > float64(math.MaxInt32) {
		return math.MaxInt32
	}
	return int(t)
}

// WithReplacement draws t indices uniformly at random from [0, n) with
// replacement. It panics when n <= 0 or t < 0.
func WithReplacement(rng *rand.Rand, n, t int) []int {
	if n <= 0 {
		panic(fmt.Sprintf("sampling: population size %d", n))
	}
	if t < 0 {
		panic(fmt.Sprintf("sampling: negative sample size %d", t))
	}
	out := make([]int, t)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// EstimateCount scales an observed sample hit count x out of t draws to
// the population size n, yielding the estimate (x/t)·n of the number of
// population members satisfying the predicate (Section 2's corollary of
// Lemma 5).
func EstimateCount(x, t, n int) float64 {
	if t <= 0 {
		panic("sampling: zero-sample estimate")
	}
	return float64(x) / float64(t) * float64(n)
}
