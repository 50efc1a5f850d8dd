package passive

import (
	"math/rand"
	"testing"
	"testing/quick"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
)

// Property (testing/quick): on any random weighted instance, the
// solver's reported optimum is a true lower bound — no randomly drawn
// monotone anchor classifier beats it — and a true achieved value —
// its own classifier attains exactly that weighted error.
func TestQuickSolveOptimalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	property := func() bool {
		n := 1 + rng.Intn(15)
		d := 1 + rng.Intn(3)
		ws := randWeightedSet(rng, n, d, 4, true)
		sol, err := solve(ws, nil)
		if err != nil {
			return false
		}
		if geom.WErr(ws, sol.Classifier.Classify) != sol.WErr {
			return false
		}
		for probe := 0; probe < 10; probe++ {
			na := 1 + rng.Intn(3)
			anchors := make([]geom.Point, na)
			for a := range anchors {
				p := make(geom.Point, d)
				for k := range p {
					p[k] = float64(rng.Intn(5))
				}
				anchors[a] = p
			}
			h := classifier.MustAnchorSet(d, anchors)
			if geom.WErr(ws, h.Classify) < sol.WErr-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return property() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): scaling all weights by a positive constant
// scales the optimum by the same constant, and the optimal assignment
// is invariant.
func TestQuickSolveWeightScalingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	property := func() bool {
		n := 2 + rng.Intn(12)
		ws := randWeightedSet(rng, n, 2, 4, true)
		scale := 1 + rng.Float64()*9
		scaled := make(geom.WeightedSet, n)
		for i, wp := range ws {
			scaled[i] = geom.WeightedPoint{P: wp.P, Label: wp.Label, Weight: wp.Weight * scale}
		}
		a, err := solve(ws, nil)
		if err != nil {
			return false
		}
		b, err := solve(scaled, nil)
		if err != nil {
			return false
		}
		diff := b.WErr - a.WErr*scale
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(func() bool { return property() }, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): flipping every label and mirroring every
// coordinate (negating) leaves the optimal error unchanged — the
// problem's order-reversal symmetry.
func TestQuickSolveMirrorSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	property := func() bool {
		n := 1 + rng.Intn(12)
		ws := randWeightedSet(rng, n, 2, 4, true)
		mirror := make(geom.WeightedSet, n)
		for i, wp := range ws {
			neg := make(geom.Point, len(wp.P))
			for k, v := range wp.P {
				neg[k] = -v
			}
			mirror[i] = geom.WeightedPoint{P: neg, Label: wp.Label ^ 1, Weight: wp.Weight}
		}
		a, err := solve(ws, nil)
		if err != nil {
			return false
		}
		b, err := solve(mirror, nil)
		if err != nil {
			return false
		}
		diff := a.WErr - b.WErr
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(func() bool { return property() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
