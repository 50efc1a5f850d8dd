package conformance

import (
	"fmt"
	"math/rand"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/problem"
)

// Metamorphic invariants: transformations of an instance with a known
// effect on the quantities the paper's theorems speak about. Every
// transform here is exact in floating point (rank remap, power-of-two
// scale, negation, duplication, permutation), so the expected
// relations hold with no modeling slack — any deviation is a bug, not
// rounding.

// metaMaxN bounds the instance size the metamorphic checks process
// (each one recomputes width + optimum on two instances).
const metaMaxN = 512

// profile is the invariant fingerprint of an instance: the quantities
// Theorems 2–4 are stated over.
type profile struct {
	width      int
	violations int
	optimum    float64
	contending int
	solveErr   bool // true when the instance is unsolvable (empty)
}

// fingerprint computes the profile.
func fingerprint(in Instance) (profile, error) {
	var p profile
	pts := in.Pts()
	p.width = chains.Width(pts)
	if in.N() > 0 {
		p.violations = domgraph.Build(pts).CountViolations(in.GeomLabels())
	}
	sol, err := problem.Solve(in.WeightedSet())
	if err != nil {
		if in.N() > 0 {
			return p, fmt.Errorf("fingerprint solve: %w", err)
		}
		p.solveErr = true
		return p, nil
	}
	p.optimum = sol.WErr
	p.contending = sol.Stats.Contending
	return p, nil
}

// expectEqualProfiles compares two profiles that must be identical.
func expectEqualProfiles(tag string, a, b profile) error {
	if a.width != b.width {
		return fmt.Errorf("%s: width %d -> %d", tag, a.width, b.width)
	}
	if a.violations != b.violations {
		return fmt.Errorf("%s: violations %d -> %d", tag, a.violations, b.violations)
	}
	if a.contending != b.contending {
		return fmt.Errorf("%s: contending %d -> %d", tag, a.contending, b.contending)
	}
	if !almostEq(a.optimum, b.optimum) {
		return fmt.Errorf("%s: optimum %g -> %g", tag, a.optimum, b.optimum)
	}
	return nil
}

// CheckMetaMonotoneTransform applies strictly increasing per-dimension
// coordinate maps — a rank remap (arbitrary monotone reparameterization,
// exact by construction) and a power-of-two affine map — and requires
// the dominance-derived quantities to be untouched: width, violation
// count, contending count, and the passive optimum.
func CheckMetaMonotoneTransform(in Instance) error {
	if in.N() == 0 || in.N() > metaMaxN {
		return nil
	}
	base, err := fingerprint(in)
	if err != nil {
		return err
	}

	ranked := in.rankCoords()
	rp, err := fingerprint(ranked)
	if err != nil {
		return err
	}
	if err := expectEqualProfiles("rank remap", base, rp); err != nil {
		return err
	}

	scaled := in.Clone()
	rng := rand.New(rand.NewSource(in.Seed ^ 0x7363616c))
	for k := 0; k < scaled.Dim(); k++ {
		// Per-dimension y = a·x + b with a a power of two and b an
		// integer: both operations are exact for the coordinate ranges
		// in play, so order and ties are preserved bit for bit.
		a := []float64{0.5, 2, 4}[rng.Intn(3)]
		b := float64(rng.Intn(17) - 8)
		for _, row := range scaled.Points {
			row[k] = a*row[k] + b
		}
	}
	sp, err := fingerprint(scaled)
	if err != nil {
		return err
	}
	return expectEqualProfiles("affine scale", base, sp)
}

// CheckMetaDuality negates every coordinate and flips every label.
// Dominance reverses direction, violating pairs map one-to-one, and a
// classifier h for the original corresponds to x -> 1 - h(-x) for the
// transform, so width, violations, contending count, and optimum are
// all preserved.
func CheckMetaDuality(in Instance) error {
	if in.N() == 0 || in.N() > metaMaxN {
		return nil
	}
	base, err := fingerprint(in)
	if err != nil {
		return err
	}
	dual := in.Clone()
	for i, row := range dual.Points {
		for k := range row {
			row[k] = -row[k]
		}
		dual.Labels[i] = 1 - dual.Labels[i]
	}
	dp, err := fingerprint(dual)
	if err != nil {
		return err
	}
	return expectEqualProfiles("negate+flip duality", base, dp)
}

// CheckMetaDuplication appends an exact copy of every point (same
// label, same weight). Duplicates are mutually comparable, so the
// width is unchanged; every violating pair becomes four; and the
// optimal classifier is unchanged while each point's weight is
// effectively doubled, so the optimum exactly doubles.
func CheckMetaDuplication(in Instance) error {
	if in.N() == 0 || 2*in.N() > metaMaxN {
		return nil
	}
	base, err := fingerprint(in)
	if err != nil {
		return err
	}
	doubled := in.Clone()
	src := in.Clone()
	doubled.Points = append(doubled.Points, src.Points...)
	doubled.Labels = append(doubled.Labels, src.Labels...)
	doubled.Weights = append(doubled.Weights, src.Weights...)
	dp, err := fingerprint(doubled)
	if err != nil {
		return err
	}
	if dp.width != base.width {
		return fmt.Errorf("duplication: width %d -> %d", base.width, dp.width)
	}
	if dp.violations != 4*base.violations {
		return fmt.Errorf("duplication: violations %d -> %d, want x4", base.violations, dp.violations)
	}
	if dp.contending != 2*base.contending {
		return fmt.Errorf("duplication: contending %d -> %d, want x2", base.contending, dp.contending)
	}
	if !almostEq(dp.optimum, 2*base.optimum) {
		return fmt.Errorf("duplication: optimum %g -> %g, want x2", base.optimum, dp.optimum)
	}
	return nil
}

// CheckMetaWeightScale multiplies every weight by two (exact in
// floating point); the optimal assignment is unchanged and the optimum
// must scale by exactly the same factor. Width and violations do not
// involve weights at all.
func CheckMetaWeightScale(in Instance) error {
	if in.N() == 0 || in.N() > metaMaxN {
		return nil
	}
	base, err := fingerprint(in)
	if err != nil {
		return err
	}
	scaled := in.Clone()
	for i := range scaled.Weights {
		scaled.Weights[i] *= 2
	}
	sp, err := fingerprint(scaled)
	if err != nil {
		return err
	}
	if sp.width != base.width || sp.violations != base.violations || sp.contending != base.contending {
		return fmt.Errorf("weight scale: structure changed (width %d->%d, violations %d->%d, contending %d->%d)",
			base.width, sp.width, base.violations, sp.violations, base.contending, sp.contending)
	}
	if !almostEq(sp.optimum, 2*base.optimum) {
		return fmt.Errorf("weight scale: optimum %g -> %g, want x2", base.optimum, sp.optimum)
	}
	return nil
}

// CheckMetaPermutation shuffles the input order; every reported
// quantity is a function of the multiset, so nothing may change.
func CheckMetaPermutation(in Instance) error {
	if in.N() == 0 || in.N() > metaMaxN {
		return nil
	}
	base, err := fingerprint(in)
	if err != nil {
		return err
	}
	perm := in.Clone()
	rng := rand.New(rand.NewSource(in.Seed ^ 0x7065726d))
	rng.Shuffle(perm.N(), func(i, j int) {
		perm.Points[i], perm.Points[j] = perm.Points[j], perm.Points[i]
		perm.Labels[i], perm.Labels[j] = perm.Labels[j], perm.Labels[i]
		perm.Weights[i], perm.Weights[j] = perm.Weights[j], perm.Weights[i]
	})
	pp, err := fingerprint(perm)
	if err != nil {
		return err
	}
	return expectEqualProfiles("permutation", base, pp)
}
