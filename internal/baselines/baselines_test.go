package baselines

import (
	"math/rand"
	"testing"

	"monoclass/internal/chains"
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

func TestFullProbeIsExactOptimal(t *testing.T) {
	lab := dataset.Figure1()
	pts, o := split(lab)
	out, err := FullProbe(pts, o)
	if err != nil {
		t.Fatal(err)
	}
	if out.Probes != len(pts) {
		t.Errorf("probes = %d, want %d", out.Probes, len(pts))
	}
	if got := geom.Err(lab, out.Classifier.Classify); got != 3 {
		t.Errorf("err = %d, want the optimum 3", got)
	}
}

func TestUniformERMFullSampleIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lab := dataset.Figure1()
	pts, o := split(lab)
	out, err := UniformERM(pts, o, len(pts), rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Probes != len(pts) {
		t.Errorf("probes = %d, want %d", out.Probes, len(pts))
	}
	if got := geom.Err(lab, out.Classifier.Classify); got != 3 {
		t.Errorf("err = %d, want 3", got)
	}
	// Oversized m clamps to n.
	out2, err := UniformERM(pts, oracle.FromLabeled(lab), 10*len(pts), rng)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Probes != len(pts) {
		t.Errorf("clamped probes = %d, want %d", out2.Probes, len(pts))
	}
}

func TestUniformERMSubsampleReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lab := dataset.Planted(rng, dataset.PlantedParams{N: 3000, D: 2, Noise: 0})
	pts, o := split(lab)
	out, err := UniformERM(pts, o, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Probes != 300 {
		t.Errorf("probes = %d, want 300", out.Probes)
	}
	// On a noiseless planted set the ERM on 10% should still be a good
	// classifier: additive error well below 10% of n.
	if got := geom.Err(lab, out.Classifier.Classify); got > 300 {
		t.Errorf("err = %d, too high for a noiseless input", got)
	}
	if ok, p, q := classifier.IsMonotoneOn(pts, out.Classifier); !ok {
		t.Errorf("ERM classifier not monotone: %v vs %v", p, q)
	}
}

func TestRBSNoiselessFindsBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lab := dataset.WidthControlled(rng, dataset.WidthParams{N: 2000, W: 4, Noise: 0})
	pts, o := split(lab)
	out, err := RBS(pts, o, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Noiseless chains: binary search finds each boundary exactly, and
	// the passive solve on exact segment labels is optimal: error 0.
	if got := geom.Err(lab, out.Classifier.Classify); got != 0 {
		t.Errorf("noiseless RBS err = %d, want 0", got)
	}
	// Probes should be around w · log(n/w), far below n.
	if out.Probes > 400 {
		t.Errorf("probes = %d, expected O(w log n)", out.Probes)
	}
}

func TestRBSNoisyStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ratios []float64
	for trial := 0; trial < 10; trial++ {
		lab := dataset.WidthControlled(rng, dataset.WidthParams{N: 1500, W: 3, Noise: 0.1})
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
		out, err := RBS(pts, o, rng)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, float64(geom.Err(lab, out.Classifier.Classify))/kstar)
	}
	if len(ratios) == 0 {
		t.Fatal("no usable trials")
	}
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	// The reconstruction targets ~2k* in expectation; allow slack but
	// catch wild regressions.
	if mean := sum / float64(len(ratios)); mean > 3.5 {
		t.Errorf("mean RBS error ratio %g, expected around 2", mean)
	}
}

func TestBaselineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	o := oracle.NewStatic([]geom.Label{0})
	pts := []geom.Point{{1, 1}}
	if _, err := FullProbe(nil, o); err == nil {
		t.Error("FullProbe empty accepted")
	}
	if _, err := FullProbe(pts, oracle.NewStatic(nil)); err == nil {
		t.Error("FullProbe size mismatch accepted")
	}
	if _, err := UniformERM(nil, o, 1, rng); err == nil {
		t.Error("UniformERM empty accepted")
	}
	if _, err := UniformERM(pts, o, 0, rng); err == nil {
		t.Error("UniformERM zero sample accepted")
	}
	if _, err := UniformERM(pts, oracle.NewStatic(nil), 1, rng); err == nil {
		t.Error("UniformERM size mismatch accepted")
	}
	if _, err := RBS(nil, o, rng); err == nil {
		t.Error("RBS empty accepted")
	}
	if _, err := RBS(pts, oracle.NewStatic(nil), rng); err == nil {
		t.Error("RBS size mismatch accepted")
	}
}

func TestBaselinesPropagateOracleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lab := dataset.Planted(rng, dataset.PlantedParams{N: 100, D: 2, Noise: 0})
	pts := make([]geom.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	mk := func() oracle.Oracle { return oracle.NewBudgeted(oracle.FromLabeled(lab), 3) }
	if _, err := FullProbe(pts, mk()); err == nil {
		t.Error("FullProbe budget error not propagated")
	}
	if _, err := UniformERM(pts, mk(), 50, rng); err == nil {
		t.Error("UniformERM budget error not propagated")
	}
	if _, err := RBS(pts, mk(), rng); err == nil {
		t.Error("RBS budget error not propagated")
	}
}

func TestRBSWeightsCoverChains(t *testing.T) {
	// The weighted probe set must account for every chain position
	// exactly once: total weight == n.
	rng := rand.New(rand.NewSource(11))
	lab := dataset.WidthControlled(rng, dataset.WidthParams{N: 500, W: 5, Noise: 0.2})
	pts := make([]geom.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	cache := oracle.NewCaching(oracle.FromLabeled(lab))
	// Reach into the construction by replicating it: run RBS and
	// verify via its public outcome that probes > 0, then check the
	// weight invariant through a direct chain run.
	dec := chains.Decompose(pts)
	var total float64
	for _, chain := range dec.Chains {
		probed, err := binarySearchChain(cache, chain, rng)
		if err != nil {
			t.Fatal(err)
		}
		prev := -1
		for k, pr := range probed {
			w := float64(pr.pos - prev)
			if k == len(probed)-1 {
				w += float64(len(chain) - 1 - pr.pos)
			}
			total += w
			prev = pr.pos
		}
	}
	if total != float64(len(pts)) {
		t.Errorf("total RBS weight %g, want %d", total, len(pts))
	}
}
