package experiments

import (
	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/passive"
	"monoclass/internal/problem"
)

// optimalIntError computes k* of a unit-weight set as an integer.
func optimalIntError(ws geom.WeightedSet) int {
	return int(mustSolve(ws).WErr + 0.5)
}

// mustSolve runs the passive solver, panicking on error (harness
// inputs are known-good).
func mustSolve(ws geom.WeightedSet) passive.Solution {
	sol, err := problem.Solve(ws)
	if err != nil {
		panic(err)
	}
	return sol
}

// werrOfPaperH evaluates §1.1's unweighted-optimal classifier h (all
// black points to 1 except p1; whites p11 and p15 to 1) on the
// weighted Figure 1(b) input.
func werrOfPaperH(ws geom.WeightedSet) float64 {
	lab := dataset.Figure1()
	assign := make(map[string]geom.Label, len(lab))
	for i, lp := range lab {
		label := lp.Label
		switch i {
		case 0: // p1 -> 0
			label = geom.Negative
		case 10, 14: // p11, p15 -> 1
			label = geom.Positive
		}
		assign[lp.P.String()] = label
	}
	var sum float64
	for _, wp := range ws {
		if assign[wp.P.String()] != wp.Label {
			sum += wp.Weight
		}
	}
	return sum
}
