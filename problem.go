package monoclass

import (
	"io"

	"monoclass/internal/audit"
	"monoclass/internal/online"
	"monoclass/internal/problem"
)

// Prepared problems: chain cover and flow network, built once
// by PrepareProblem and shared by training (TrainPrepared), auditing
// (AuditPrepared), online learning (NewOnlineUpdaterFromProblem), and
// serving gates. Callers that train and audit the same point set
// through a shared Problem pay for the O(dn²) structure exactly once
// instead of once per entry point; the Problem keeps nothing quadratic.
type (
	// Problem is an immutable prepared instance; see PrepareProblem.
	Problem = problem.Problem
	// ProblemOptions configures PrepareProblem (the dense-matrix
	// limit).
	ProblemOptions = problem.Options
	// MatrixMode names the dominance representation PrepareProblem built
	// the network over: ModeDense or ModeImplicit.
	MatrixMode = problem.MatrixMode
	// PrepareStats reports how PrepareProblem built an instance:
	// per-stage wall times, the cover path taken (the dense matrix's
	// best-fit seed cover vs the greedy fallback), the seed counters,
	// and the cover's chain count, which is the dominance width only
	// when ExactWidth holds. Read it with (*Problem).Stats.
	PrepareStats = problem.PrepareStats
)

// Matrix modes, as (*Problem).Mode reports them.
const (
	// ModeDense: the bit-packed dominance matrix, built at d ≥ 3 for
	// the seed cover and dropped after the network build.
	ModeDense = problem.ModeDense
	// ModeImplicit: per-dimension rank arrays, at d ≤ 2 and past the
	// exact-decomposition limit.
	ModeImplicit = problem.ModeImplicit
)

// PrepareProblem builds the prepared form of ws once: a chain cover
// and the Theorem 4 flow network, which is exact over any valid
// cover. At d ≥ 3 the cover is a best-fit greedy one that may hold
// more chains than the dominance width (DominanceWidth gives the
// width).
// Every consumer below accepts the result, so nothing is re-derived.
func PrepareProblem(ws WeightedSet, opts ProblemOptions) (*Problem, error) {
	return problem.Prepare(ws, opts)
}

// TrainPrepared solves the prepared instance — the same solution
// OptimalPassive returns for the underlying set, minus the rebuild:
// repeated calls pay only a max-flow re-solve on the cached network.
func TrainPrepared(p *Problem) (PassiveSolution, error) { return p.Solve() }

// AuditPrepared computes the dataset report from the prepared
// instance, whose network and optimum it shares with TrainPrepared.
// Its violation count may rebuild the dominance matrix once (see
// Problem.Violations), and its width decomposes the points unless the
// Problem's cover is certified minimum.
func AuditPrepared(p *Problem) (AuditReport, error) { return audit.AuditProblem(p) }

// NewOnlineUpdaterFromProblem seeds an incremental learner from a
// prepared Problem: its live multiset is the Problem's point set and
// its first model is the Problem's own solve, so the first exact solve
// skips a Prepare. Later exact re-solves retrain through
// PrepareProblem's default path.
func NewOnlineUpdaterFromProblem(p *Problem, cfg OnlineConfig) (*OnlineUpdater, error) {
	return online.NewUpdaterFromProblem(p, cfg)
}

// SaveProblem serializes a prepared problem as versioned JSON
// (alongside the SaveModel format); LoadProblem restores it, letting a
// warm process skip PrepareProblem entirely.
func SaveProblem(w io.Writer, p *Problem) error { return problem.Write(w, p) }

// LoadProblem deserializes a problem written by SaveProblem,
// validating the stored structure before trusting it.
func LoadProblem(r io.Reader) (*Problem, error) { return problem.Read(r) }
