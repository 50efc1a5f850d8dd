package monoclass

import "monoclass/internal/lowerbound"

// The Section 6 hardness construction behind Theorem 1: a family of n
// one-dimensional inputs on the shared points {1..n} such that
// returning an exactly optimal classifier on more than 2/3 of the
// family costs Ω(n) probes per input on average. Exposed so users can
// benchmark their own active strategies against the proof's game.

// HardInstance is one input of the family; its labels differ from the
// alternating default at a single anomaly pair.
type HardInstance = lowerbound.Instance

// HardKind distinguishes the two anomaly types.
type HardKind = lowerbound.Kind

// The two anomaly kinds.
const (
	HardKind00 = lowerbound.Kind00 // pair labeled (0, 0)
	HardKind11 = lowerbound.Kind11 // pair labeled (1, 1)
)

// HardFamilyPoints returns the shared point set {1, ..., n}.
func HardFamilyPoints(n int) []Point { return lowerbound.Points(n) }

// HardFamilyOptimalError returns the optimal monotone error on every
// family instance: n/2 - 1.
func HardFamilyOptimalError(n int) int { return lowerbound.OptimalError(n) }

// PairProbeStrategy is the deterministic pair-probing strategy class
// of Lemma 19; Order lists the 1-based pair indices it probes.
type PairProbeStrategy = lowerbound.PairProbeStrategy

// GameResult aggregates a strategy's accuracy and probing cost over
// the whole family.
type GameResult = lowerbound.GameResult

// RunLowerBoundGame plays a pair-probing strategy against every
// instance of the size-n family; Lemma 19 predicts TotalCost =
// n·ℓ - ℓ² + ℓ (pair-probe units) and NonOptCount = n/2 - ℓ for the
// canonical budget-ℓ strategy.
func RunLowerBoundGame(n int, s PairProbeStrategy) GameResult {
	return lowerbound.RunGame(n, s)
}
