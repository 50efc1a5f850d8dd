// Package baselines implements the comparison algorithms the paper
// discusses in Section 1.2, metered through the same oracle interface
// as the core algorithm so experiment E7 can compare probing cost and
// error like-for-like:
//
//   - FullProbe: reveal every label, then solve Problem 2 exactly — the
//     Θ(n)-probe optimal learner Theorem 1 proves unavoidable for exact
//     answers.
//   - UniformERM: probe a uniform sample of m points and return the
//     empirical-risk minimizer over monotone classifiers (our passive
//     solver on the sample). This is the passive-sampling core that
//     A²-style bounds build on; it guarantees an additive εn error with
//     m = O(w/ε²) samples, which is much weaker than a multiplicative
//     (1+ε)k* guarantee when k* ≪ n.
//   - RBS: a reconstruction of the Tao'18-style learner (that paper's
//     text is not available here; see DESIGN.md §2.3): a randomized
//     binary search per chain localizes each chain's label boundary
//     with O(log|C_i|) probes, probed points stand in for their chain
//     segments with proportional weights, and a weighted passive solve
//     stitches the chains into a monotone classifier. Expected error
//     tracks ~2k* rather than (1+ε)k*.
package baselines

import (
	"fmt"
	"math/rand"

	"monoclass/internal/chains"
	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/oracle"
	"monoclass/internal/problem"
)

// Outcome is the common result shape of every baseline.
type Outcome struct {
	// Classifier is the learned monotone classifier.
	Classifier *classifier.AnchorSet
	// Probes is the number of distinct points revealed.
	Probes int
}

// FullProbe reveals all n labels and solves Problem 2 exactly.
func FullProbe(pts []geom.Point, o oracle.Oracle) (Outcome, error) {
	if len(pts) == 0 {
		return Outcome{}, fmt.Errorf("baselines: empty input")
	}
	if o.Len() != len(pts) {
		return Outcome{}, fmt.Errorf("baselines: oracle covers %d points, input has %d", o.Len(), len(pts))
	}
	cache := oracle.NewCaching(o)
	ws := make(geom.WeightedSet, len(pts))
	for i, p := range pts {
		label, err := cache.Probe(i)
		if err != nil {
			return Outcome{}, fmt.Errorf("baselines: probing %d: %w", i, err)
		}
		ws[i] = geom.WeightedPoint{P: p, Label: label, Weight: 1}
	}
	sol, err := problem.Solve(ws)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Classifier: sol.Classifier, Probes: cache.Distinct()}, nil
}

// UniformERM probes a uniform without-replacement sample of m points
// and returns the optimal monotone classifier on the sample, each
// sampled point weighted n/m.
func UniformERM(pts []geom.Point, o oracle.Oracle, m int, rng *rand.Rand) (Outcome, error) {
	n := len(pts)
	if n == 0 {
		return Outcome{}, fmt.Errorf("baselines: empty input")
	}
	if o.Len() != n {
		return Outcome{}, fmt.Errorf("baselines: oracle covers %d points, input has %d", o.Len(), n)
	}
	if m <= 0 {
		return Outcome{}, fmt.Errorf("baselines: sample size %d must be positive", m)
	}
	if m > n {
		m = n
	}
	cache := oracle.NewCaching(o)
	idxs := samplePerm(rng, n, m)
	ws := make(geom.WeightedSet, 0, m)
	for _, i := range idxs {
		label, err := cache.Probe(i)
		if err != nil {
			return Outcome{}, fmt.Errorf("baselines: probing %d: %w", i, err)
		}
		ws = append(ws, geom.WeightedPoint{P: pts[i], Label: label, Weight: float64(n) / float64(m)})
	}
	sol, err := problem.Solve(ws)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Classifier: sol.Classifier, Probes: cache.Distinct()}, nil
}

// samplePerm draws m distinct indices from [0, n) uniformly.
func samplePerm(rng *rand.Rand, n, m int) []int {
	perm := rng.Perm(n)
	return perm[:m]
}

// RBS runs the randomized-binary-search baseline: decompose into w
// chains, localize each chain's boundary with a randomized binary
// search (expected O(log |C_i|) probes), weight each probed point by
// the chain segment it stands for, and solve Problem 2 on the weighted
// probe set.
func RBS(pts []geom.Point, o oracle.Oracle, rng *rand.Rand) (Outcome, error) {
	n := len(pts)
	if n == 0 {
		return Outcome{}, fmt.Errorf("baselines: empty input")
	}
	if o.Len() != n {
		return Outcome{}, fmt.Errorf("baselines: oracle covers %d points, input has %d", o.Len(), n)
	}
	cache := oracle.NewCaching(o)
	dec := chains.Decompose(pts)

	var ws geom.WeightedSet
	for _, chain := range dec.Chains {
		probed, err := binarySearchChain(cache, chain, rng)
		if err != nil {
			return Outcome{}, err
		}
		// Attribute every chain position to the nearest probed
		// position at or after it; the tail after the last probe goes
		// to the last probe. Total weight = chain length.
		prev := -1
		for k, pr := range probed {
			weight := float64(pr.pos - prev)
			if k == len(probed)-1 {
				weight += float64(len(chain) - 1 - pr.pos)
			}
			ws = append(ws, geom.WeightedPoint{P: pts[chain[pr.pos]], Label: pr.label, Weight: weight})
			prev = pr.pos
		}
	}
	sol, err := problem.Solve(ws)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Classifier: sol.Classifier, Probes: cache.Distinct()}, nil
}

// probeRecord is one revealed label at a chain position.
type probeRecord struct {
	pos   int
	label geom.Label
}

// binarySearchChain localizes the 0→1 boundary of one chain, assuming
// (as the expectation analysis does) that labels are mostly monotone
// along the chain: a revealed 1 sends the search below the pivot, a 0
// above. Pivots are uniform in the remaining range, the randomization
// that yields the 2k* expected-error behaviour on noisy chains.
// Returned records are sorted by position.
func binarySearchChain(o oracle.Oracle, chain []int, rng *rand.Rand) ([]probeRecord, error) {
	lo, hi := 0, len(chain)-1
	var probed []probeRecord
	for lo <= hi {
		pivot := lo + rng.Intn(hi-lo+1)
		label, err := o.Probe(chain[pivot])
		if err != nil {
			return nil, fmt.Errorf("baselines: probing %d: %w", chain[pivot], err)
		}
		probed = append(probed, probeRecord{pos: pivot, label: label})
		if label == geom.Positive {
			hi = pivot - 1
		} else {
			lo = pivot + 1
		}
	}
	sortRecords(probed)
	return probed, nil
}

// sortRecords sorts probe records by chain position (insertion sort;
// binary search yields O(log n) records).
func sortRecords(rs []probeRecord) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].pos < rs[j-1].pos; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
