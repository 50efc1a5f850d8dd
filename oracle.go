package monoclass

import (
	"math/rand"

	"monoclass/internal/oracle"
)

// Oracle reveals the hidden label of input point i at unit cost: the
// probing model of Problem 1. Implementations may count, cache, limit
// or perturb probes; the constructors below compose those behaviours.
type Oracle = oracle.Oracle

// ErrBudgetExhausted is returned by a budgeted oracle once its
// allowance is spent.
var ErrBudgetExhausted = oracle.ErrBudgetExhausted

// NewOracle builds the basic in-memory oracle over ground-truth
// labels.
func NewOracle(labels []Label) Oracle { return oracle.NewStatic(labels) }

// OracleFromLabeled hides the labels of a labeled point set behind an
// oracle, the standard way to set up an active-learning experiment
// from fully-known data.
func OracleFromLabeled(pts []LabeledPoint) Oracle { return oracle.FromLabeled(pts) }

// InstrumentedOracle is an oracle stack that meters probing: Distinct
// reports the paper's probing cost (distinct points revealed).
type InstrumentedOracle struct {
	inner *oracle.Instrumented
}

// InstrumentLabeled wraps the labels of a labeled point set with
// probe metering.
func InstrumentLabeled(pts []LabeledPoint) *InstrumentedOracle {
	return &InstrumentedOracle{inner: oracle.InstrumentLabeled(pts)}
}

// Probe implements Oracle.
func (io *InstrumentedOracle) Probe(i int) (Label, error) { return io.inner.O.Probe(i) }

// Len implements Oracle.
func (io *InstrumentedOracle) Len() int { return io.inner.O.Len() }

// Distinct returns the number of distinct points revealed so far —
// the probing cost of Problem 1.
func (io *InstrumentedOracle) Distinct() int { return io.inner.DistinctProbes() }

// NewBudgetedOracle limits inner to at most budget successful probes;
// further probes fail with ErrBudgetExhausted.
func NewBudgetedOracle(inner Oracle, budget int) Oracle {
	return oracle.NewBudgeted(inner, budget)
}

// NewNoisyOracle flips each revealed label independently with
// probability flipProb (sticky across re-probes), for robustness
// experiments.
func NewNoisyOracle(inner Oracle, flipProb float64, rng *rand.Rand) Oracle {
	return oracle.NewNoisy(inner, flipProb, rng)
}

// MajorityOracle simulates k-annotator repeated labeling: each probe
// asks k independent annotators (each flipping the true label with
// probability flipProb) and returns the majority — the standard
// crowdsourcing trade of annotation budget for label quality.
type MajorityOracle = oracle.Majority

// NewMajorityOracle builds a k-annotator majority oracle (k odd) over
// ground truth served by base.
func NewMajorityOracle(base Oracle, flipProb float64, k int, rng *rand.Rand) *MajorityOracle {
	return oracle.NewMajority(base, flipProb, k, rng)
}
