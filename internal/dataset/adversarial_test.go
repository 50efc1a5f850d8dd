package dataset

import (
	"math/rand"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/geom"
	"monoclass/internal/problem"
)

func rawPoints(lab []geom.LabeledPoint) []geom.Point {
	pts := make([]geom.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	return pts
}

func TestNoisyChainStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lab := NoisyChain(rng, 500, 0.2)
	if len(lab) != 500 {
		t.Fatalf("len = %d", len(lab))
	}
	if w := chains.Width(rawPoints(lab)); w != 1 {
		t.Errorf("width = %d, want 1 (single chain)", w)
	}
	// Noiseless chain is monotone-consistent.
	clean := NoisyChain(rng, 300, 0)
	if geom.MonotoneViolations(clean) != 0 {
		t.Error("noiseless chain has violations")
	}
	ld := geom.LabeledDataset{Points: lab}
	sol, err := problem.Solve(ld.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	kstar := sol.WErr
	if kstar <= 0 || kstar > 0.3*500 {
		t.Errorf("k* = %g implausible for 20%% noise", kstar)
	}
}

func TestAntiDiagonalStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lab := AntiDiagonal(rng, 200)
	if w := chains.Width(rawPoints(lab)); w != 200 {
		t.Errorf("width = %d, want 200 (pure antichain)", w)
	}
	// Any labeling of an antichain is monotone-consistent: k* = 0.
	ld := geom.LabeledDataset{Points: lab}
	sol, err := problem.Solve(ld.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	kstar := sol.WErr
	if kstar != 0 {
		t.Errorf("k* = %g, want 0 on an antichain", kstar)
	}
}

func TestLabelInversionMaxError(t *testing.T) {
	lab := LabelInversion(100)
	ld := geom.LabeledDataset{Points: lab}
	sol, err := problem.Solve(ld.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	kstar := sol.WErr
	if kstar != 50 {
		t.Errorf("k* = %g, want n/2 = 50 on the inverted chain", kstar)
	}
}

func TestAdversarialPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, f := range []func(){
		func() { NoisyChain(rng, -1, 0) },
		func() { NoisyChain(rng, 5, 1) },
		func() { AntiDiagonal(rng, -1) },
		func() { LabelInversion(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
