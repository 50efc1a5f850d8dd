package core

import (
	"math/rand"
	"testing"

	"monoclass/internal/classifier"
	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/oracle"
	"monoclass/internal/problem"
)

func split(lab []geom.LabeledPoint) ([]geom.Point, *oracle.Static) {
	pts := make([]geom.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	return pts, oracle.FromLabeled(lab)
}

func TestActiveLearnFigure1(t *testing.T) {
	lab := dataset.Figure1()
	pts, o := split(lab)
	rng := rand.New(rand.NewSource(21))
	// Theory params at n=16 degrade to exhaustive probing, which is
	// exact: the result must be an optimal classifier with error 3.
	res, err := ActiveLearn(pts, o, TheoryParams(0.5, 0.01), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Width != 6 {
		t.Errorf("width = %d, want 6", res.Width)
	}
	if got := geom.Err(lab, res.Classifier.Classify); got != 3 {
		t.Errorf("err_P = %d, want the optimum 3", got)
	}
	if res.Probes != 16 {
		t.Errorf("probes = %d, want 16 (exhaustive at this size)", res.Probes)
	}
}

func TestActiveLearnNoiselessMultiDim(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lab := dataset.Planted(rng, dataset.PlantedParams{N: 400, D: 3, Noise: 0})
	pts, o := split(lab)
	res, err := ActiveLearn(pts, o, PracticalParams(0.5, 0.05), rng)
	if err != nil {
		t.Fatal(err)
	}
	// k* = 0: Theorem 2 promises an optimal classifier whp.
	if got := geom.Err(lab, res.Classifier.Classify); got != 0 {
		t.Errorf("err_P = %d, want 0 on a monotone-consistent input", got)
	}
	if ok, p, q := classifier.IsMonotoneOn(pts, res.Classifier); !ok {
		t.Errorf("returned classifier not monotone: %v vs %v", p, q)
	}
}

func TestActiveLearnApproximationOnWidthControlled(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const eps = 0.5
	var ratios []float64
	for trial := 0; trial < 6; trial++ {
		lab := dataset.WidthControlled(rng, dataset.WidthParams{N: 4000, W: 5, Noise: 0.08})
		pts, o := split(lab)
		ld := geom.LabeledDataset{Points: lab}
		sol, err := problem.Solve(ld.Weighted())
		if err != nil {
			t.Fatal(err)
		}
		kstar := sol.WErr
		if kstar == 0 {
			continue
		}
		res, err := ActiveLearn(pts, o, PracticalParams(eps, 0.05), rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Width != 5 {
			t.Fatalf("trial %d: width %d, want 5", trial, res.Width)
		}
		got := float64(geom.Err(lab, res.Classifier.Classify))
		ratios = append(ratios, got/kstar)
	}
	if len(ratios) == 0 {
		t.Fatal("no usable trials")
	}
	var sum, worst float64
	for _, r := range ratios {
		sum += r
		if r > worst {
			worst = r
		}
	}
	if mean := sum / float64(len(ratios)); mean > 1+eps {
		t.Errorf("mean error ratio %g exceeds 1+ε = %g (ratios %v)", mean, 1+eps, ratios)
	}
	if worst > 1+2*eps {
		t.Errorf("worst error ratio %g far beyond 1+ε (ratios %v)", worst, ratios)
	}
}

func TestActiveLearnProbesScaleWithWidthNotSize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 30000
	lab := dataset.WidthControlled(rng, dataset.WidthParams{N: n, W: 3, Noise: 0.05})
	pts := make([]geom.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	in := oracle.InstrumentLabeled(lab)
	res, err := ActiveLearn(pts, in.O, PracticalParams(1, 0.05), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes >= n/3 {
		t.Errorf("probes = %d on n = %d, w = 3: expected clearly sublinear", res.Probes, n)
	}
	if res.Probes != in.DistinctProbes() {
		t.Errorf("Result.Probes %d disagrees with oracle instrumentation %d", res.Probes, in.DistinctProbes())
	}
}

func TestActiveLearnSigmaMinimizer(t *testing.T) {
	// The returned classifier must minimize w-err over Σ: no threshold
	// or random anchor classifier may beat it on Σ.
	rng := rand.New(rand.NewSource(37))
	lab := dataset.Planted(rng, dataset.PlantedParams{N: 800, D: 2, Noise: 0.1})
	pts, o := split(lab)
	res, err := ActiveLearn(pts, o, PracticalParams(0.5, 0.05), rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := geom.WErr(res.Sigma, res.Classifier.Classify); got != res.SigmaWErr {
		t.Fatalf("SigmaWErr %g but classifier achieves %g on Σ", res.SigmaWErr, got)
	}
	for probe := 0; probe < 60; probe++ {
		anchors := make([]geom.Point, 1+rng.Intn(3))
		for a := range anchors {
			anchors[a] = geom.Point{rng.Float64(), rng.Float64()}
		}
		h := classifier.MustAnchorSet(2, anchors)
		if got := geom.WErr(res.Sigma, h.Classify); got < res.SigmaWErr-1e-9 {
			t.Fatalf("random classifier beats the Σ-minimizer: %g < %g", got, res.SigmaWErr)
		}
	}
}

func TestActiveLearnValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := ActiveLearn(nil, oracle.NewStatic(nil), PracticalParams(0.5, 0.1), rng); err == nil {
		t.Error("empty input accepted")
	}
	pts := []geom.Point{{1, 2}}
	if _, err := ActiveLearn(pts, oracle.NewStatic(nil), PracticalParams(0.5, 0.1), rng); err == nil {
		t.Error("oracle size mismatch accepted")
	}
	if _, err := ActiveLearn(pts, oracle.NewStatic([]geom.Label{0}), PracticalParams(0.5, 0), rng); err == nil {
		t.Error("invalid delta accepted")
	}
}

func TestActiveLearnBudgetErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lab := dataset.Planted(rng, dataset.PlantedParams{N: 500, D: 2, Noise: 0})
	pts := make([]geom.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	budgeted := oracle.NewBudgeted(oracle.FromLabeled(lab), 5)
	if _, err := ActiveLearn(pts, budgeted, PracticalParams(0.5, 0.05), rng); err == nil {
		t.Error("budget exhaustion not propagated")
	}
}

func TestActiveLearn1DInputViaChains(t *testing.T) {
	// d = 1 flows through the same pipeline: one chain.
	rng := rand.New(rand.NewSource(43))
	lab := dataset.Uniform1D(rng, 500, 0.5, 0)
	pts, o := split(lab)
	res, err := ActiveLearn(pts, o, PracticalParams(0.5, 0.05), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Width != 1 {
		t.Errorf("1-D width = %d, want 1", res.Width)
	}
	if got := geom.Err(lab, res.Classifier.Classify); got != 0 {
		t.Errorf("noiseless 1-D err = %d, want 0", got)
	}
}

func TestActiveLearnTimingPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	lab := dataset.Planted(rng, dataset.PlantedParams{N: 300, D: 2, Noise: 0.05})
	pts, o := split(lab)
	res, err := ActiveLearn(pts, o, PracticalParams(0.5, 0.05), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Decompose <= 0 || res.Timing.Probe <= 0 || res.Timing.Solve <= 0 {
		t.Errorf("timings not populated: %+v", res.Timing)
	}
}
