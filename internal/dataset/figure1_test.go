package dataset

import (
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/geom"
	"monoclass/internal/passive"
	"monoclass/internal/problem"
)

// TestFigure1OptimalErrorIsThree reproduces the headline claim of
// Figure 1(a): the minimum error k* over all monotone classifiers is 3.
func TestFigure1OptimalErrorIsThree(t *testing.T) {
	pts := Figure1()
	ld := geom.LabeledDataset{Points: pts}
	sol, err := problem.Solve(ld.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	if sol.WErr != 3 {
		t.Fatalf("k* = %g, paper says 3", sol.WErr)
	}
	// Cross-check with the exponential reference solver.
	naive, err := passive.NaiveSolve(ld.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	if naive.WErr != 3 {
		t.Fatalf("naive k* = %g, paper says 3", naive.WErr)
	}
}

// TestFigure1OptimalClassifierShape verifies Section 1.1's description
// of an optimal classifier: all black points mapped to 1 except p1,
// all white points mapped to 0 except p11 and p15 (unit weights).
func TestFigure1OptimalClassifierShape(t *testing.T) {
	pts := Figure1()
	ld := geom.LabeledDataset{Points: pts}
	sol, err := problem.Solve(ld.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	mis := map[int]bool{}
	for i, lp := range pts {
		if sol.Assignment[i] != lp.Label {
			mis[i] = true
		}
	}
	want := map[int]bool{0: true, 10: true, 14: true} // p1, p11, p15
	if len(mis) != len(want) {
		t.Fatalf("mis-classified set %v, want {p1,p11,p15}", mis)
	}
	for i := range want {
		if !mis[i] {
			t.Errorf("point p%d should be mis-classified", i+1)
		}
	}
}

// TestFigure1Width reproduces Section 1.2: the dominance width is 6,
// witnessed by the stated antichain, and the stated 6-chain
// decomposition is valid.
func TestFigure1Width(t *testing.T) {
	pts := Figure1()
	raw := make([]geom.Point, len(pts))
	for i, lp := range pts {
		raw[i] = lp.P
	}
	dec := chains.Decompose(raw)
	if dec.Width != 6 {
		t.Fatalf("width = %d, paper says 6", dec.Width)
	}
	if got := chains.Width(raw); got != 6 {
		t.Fatalf("Width = %d, paper says 6", got)
	}
	if err := chains.ValidateAntichain(raw, Figure1Antichain()); err != nil {
		t.Fatalf("paper's antichain invalid on fixture: %v", err)
	}
	if err := chains.ValidateDecomposition(raw, Figure1Chains()); err != nil {
		t.Fatalf("paper's chain decomposition invalid on fixture: %v", err)
	}
	if got := len(Figure1Antichain()); got != 6 {
		t.Fatalf("stated antichain has %d members, want 6", got)
	}
}

// TestFigure1ContendingSets reproduces Figure 2(a): the contending
// point sets.
func TestFigure1ContendingSets(t *testing.T) {
	pts := Figure1()
	negWant := map[int]bool{}
	for _, i := range Figure1ContendingNegative() {
		negWant[i] = true
	}
	posWant := map[int]bool{}
	for _, i := range Figure1ContendingPositive() {
		posWant[i] = true
	}
	for i := range pts {
		contending := false
		for j := range pts {
			if i == j || pts[i].Label == pts[j].Label {
				continue
			}
			if pts[i].Label == geom.Negative && geom.Dominates(pts[i].P, pts[j].P) {
				contending = true
			}
			if pts[i].Label == geom.Positive && geom.Dominates(pts[j].P, pts[i].P) {
				contending = true
			}
		}
		want := negWant[i] || posWant[i]
		if contending != want {
			t.Errorf("p%d: contending = %v, paper says %v", i+1, contending, want)
		}
	}
}

// TestFigure1WeightedOptimum reproduces Figure 1(b) + Figure 2(b): the
// optimal weighted error is 104, and the optimal classifier maps
// exactly {p10, p12, p16} to 1.
func TestFigure1WeightedOptimum(t *testing.T) {
	ws := Figure1Weighted()
	sol, err := problem.Solve(ws)
	if err != nil {
		t.Fatal(err)
	}
	if sol.WErr != 104 {
		t.Fatalf("optimal weighted error = %g, paper says 104", sol.WErr)
	}
	naive, err := passive.NaiveSolve(ws)
	if err != nil {
		t.Fatal(err)
	}
	if naive.WErr != 104 {
		t.Fatalf("naive optimal weighted error = %g, paper says 104", naive.WErr)
	}
	posWant := map[int]bool{9: true, 11: true, 15: true} // p10, p12, p16
	for i := range ws {
		got := sol.Assignment[i] == geom.Positive
		if got != posWant[i] {
			t.Errorf("p%d: assigned %v, paper's h' assigns %v", i+1, sol.Assignment[i], posWant[i])
		}
	}
	// The five mis-classified points are p1, p4, p9, p13, p14 with
	// weights 100+1+1+1+1 = 104 (the cut-edge set of Figure 2(b)).
	var sum float64
	for i, wp := range ws {
		if sol.Assignment[i] != wp.Label {
			sum += wp.Weight
		}
	}
	if sum != 104 {
		t.Fatalf("mis-classified weight %g, want 104", sum)
	}
}

// TestFigure1WeightedExampleClassifiers checks the two concrete
// classifiers discussed in Section 1.1 on the weighted input: the
// unweighted-optimal h has weighted error 220, while h' achieves 104.
func TestFigure1WeightedExampleClassifiers(t *testing.T) {
	ws := Figure1Weighted()
	pts := Figure1()
	// h: every black to 1 except p1; whites p11 and p15 to 1.
	h := func(p geom.Point) geom.Label {
		for i, lp := range pts {
			if lp.P.Equal(p) {
				switch i {
				case 0: // p1 -> 0
					return geom.Negative
				case 10, 14: // p11, p15 -> 1
					return geom.Positive
				default:
					return lp.Label
				}
			}
		}
		t.Fatalf("unknown point %v", p)
		return 0
	}
	if got := geom.WErr(ws, h); got != 220 {
		t.Errorf("w-err(h) = %g, paper says 220", got)
	}
	// h': exactly p10, p12, p16 to 1.
	hPrime := func(p geom.Point) geom.Label {
		for _, i := range []int{9, 11, 15} {
			if pts[i].P.Equal(p) {
				return geom.Positive
			}
		}
		return geom.Negative
	}
	if got := geom.WErr(ws, hPrime); got != 104 {
		t.Errorf("w-err(h') = %g, paper says 104", got)
	}
}
