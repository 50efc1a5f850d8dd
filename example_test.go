package monoclass_test

import (
	"fmt"
	"math/rand"

	"monoclass"
)

// The paper's Figure 1(b): solve passive weighted monotone
// classification exactly via the Theorem 4 min-cut reduction.
func ExampleOptimalPassive() {
	ws := monoclass.Figure1Weighted()
	sol, err := monoclass.OptimalPassive(ws)
	if err != nil {
		panic(err)
	}
	fmt.Println("optimal weighted error:", sol.WErr)
	// Output: optimal weighted error: 104
}

// Learn a (1+ε)-approximate monotone classifier while paying for only
// a fraction of the labels (Theorems 2+3).
func ExampleActiveLearn() {
	rng := rand.New(rand.NewSource(1))
	lab := monoclass.GenerateWidthControlled(rng, monoclass.WidthParams{N: 20000, W: 4, Noise: 0})
	pts := make([]monoclass.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	o := monoclass.InstrumentLabeled(lab) // hides labels; counts probes
	res, err := monoclass.ActiveLearn(pts, o, monoclass.PracticalParams(0.5, 0.05), rng)
	if err != nil {
		panic(err)
	}
	fmt.Println("learned error on a monotone-consistent input:", monoclass.Err(lab, res.Classifier))
	fmt.Println("probed fewer than half the labels:", o.Distinct() < len(pts)/2)
	// Output:
	// learned error on a monotone-consistent input: 0
	// probed fewer than half the labels: true
}

// Dominance width via a minimum chain decomposition (Lemma 6), on the
// paper's Figure 1 input.
func ExampleChainDecompose() {
	lab := monoclass.Figure1()
	pts := make([]monoclass.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	dec := monoclass.ChainDecompose(pts)
	fmt.Println("width:", dec.Width, "chains:", len(dec.Chains), "antichain certificate:", len(dec.Antichain))
	// Output: width: 6 chains: 6 antichain certificate: 6
}

// Maintain the best 1-D threshold online as labeled values stream in.
func ExampleStreamingThreshold() {
	s := monoclass.NewStreamingThreshold(rand.New(rand.NewSource(1)))
	s.Observe(1, monoclass.Negative, 1)
	s.Observe(2, monoclass.Negative, 1)
	s.Observe(3, monoclass.Positive, 1)
	h, werr := s.Best()
	fmt.Printf("threshold %g, weighted error %g\n", h.Tau, werr)
	// Output: threshold 2, weighted error 0
}

// Quantization trades a little accuracy (k*) for a large drop in the
// dominance width — the knob that controls active labeling cost.
func ExampleQuantizeTradeoff() {
	rng := rand.New(rand.NewSource(2))
	lab := monoclass.GeneratePlanted(rng, monoclass.PlantedParams{N: 400, D: 2, Noise: 0.05})
	stats, err := monoclass.QuantizeTradeoff(lab, []int{64, 4})
	if err != nil {
		panic(err)
	}
	fmt.Println("fine grid width > coarse grid width:", stats[0].Width > stats[1].Width)
	fmt.Println("coarse grid k* >= fine grid k*:", stats[1].KStar >= stats[0].KStar)
	// Output:
	// fine grid width > coarse grid width: true
	// coarse grid k* >= fine grid k*: true
}

// Prepare Figure 1(b) once, train and audit from the same Problem,
// then seed an online learner from it: its first model is the
// Problem's own solve. With RebuildEvery 1 the insert is re-solved
// exactly; a negative point above every input costs its own weight.
func ExampleNewOnlineUpdaterFromProblem() {
	p, err := monoclass.PrepareProblem(monoclass.Figure1Weighted(), monoclass.ProblemOptions{})
	if err != nil {
		panic(err)
	}
	sol, err := monoclass.TrainPrepared(p)
	if err != nil {
		panic(err)
	}
	rep, err := monoclass.AuditPrepared(p)
	if err != nil {
		panic(err)
	}
	fmt.Println("trained k*:", sol.WErr, "audited k*:", rep.KStar)

	u, err := monoclass.NewOnlineUpdaterFromProblem(p, monoclass.OnlineConfig{RebuildEvery: 1})
	if err != nil {
		panic(err)
	}
	top := monoclass.Delta{Op: monoclass.OpInsert, Point: monoclass.Point{100, 100}, Label: monoclass.Negative, Weight: 1}
	if err := u.Apply(top); err != nil {
		panic(err)
	}
	st := u.Stats()
	fmt.Println("live:", st.Live, "exact solves:", st.ExactSolves, "werr:", u.WErr())
	// Output:
	// trained k*: 104 audited k*: 104
	// live: 17 exact solves: 2 werr: 105
}
