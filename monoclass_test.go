package monoclass_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"monoclass"
)

// TestPublicPassiveWorkflow exercises the passive path end-to-end
// through the public API only, on the paper's worked example.
func TestPublicPassiveWorkflow(t *testing.T) {
	ws := monoclass.Figure1Weighted()
	sol, err := monoclass.OptimalPassive(ws)
	if err != nil {
		t.Fatal(err)
	}
	if sol.WErr != 104 {
		t.Errorf("weighted optimum = %g, want 104", sol.WErr)
	}
	if got := monoclass.WErr(ws, sol.Classifier); got != 104 {
		t.Errorf("WErr = %g, want 104", got)
	}
	kstar, err := monoclass.OptimalError(ws)
	if err != nil || kstar != 104 {
		t.Errorf("OptimalError = %g, %v", kstar, err)
	}
}

// TestPublicActiveWorkflow exercises the active path end-to-end: hide
// labels, learn with a probing budget measured by the instrumented
// oracle, validate quality and monotonicity.
func TestPublicActiveWorkflow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lab := monoclass.GenerateWidthControlled(rng, monoclass.WidthParams{N: 20000, W: 4, Noise: 0})
	pts := make([]monoclass.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	o := monoclass.InstrumentLabeled(lab)
	res, err := monoclass.ActiveLearn(pts, o, monoclass.PracticalParams(0.5, 0.05), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Width != 4 {
		t.Errorf("width = %d, want 4", res.Width)
	}
	if got := monoclass.Err(lab, res.Classifier); got != 0 {
		t.Errorf("noiseless err = %d, want 0", got)
	}
	if o.Distinct() >= len(pts) {
		t.Errorf("probing cost %d not below n = %d", o.Distinct(), len(pts))
	}
	if ok, p, q := monoclass.IsMonotoneOn(pts, res.Classifier); !ok {
		t.Errorf("classifier not monotone: %v vs %v", p, q)
	}
}

func TestPublicChainAndWidth(t *testing.T) {
	lab := monoclass.Figure1()
	pts := make([]monoclass.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	if w := monoclass.DominanceWidth(pts); w != 6 {
		t.Errorf("width = %d, want 6", w)
	}
	dec := monoclass.ChainDecompose(pts)
	if dec.Width != 6 || len(dec.Chains) != 6 || len(dec.Antichain) != 6 {
		t.Errorf("decomposition inconsistent: %+v", dec)
	}
}

func TestPublicDominance(t *testing.T) {
	if !monoclass.Dominates(monoclass.Point{2, 2}, monoclass.Point{1, 2}) {
		t.Error("Dominates wrong")
	}
	if monoclass.Comparable(monoclass.Point{0, 1}, monoclass.Point{1, 0}) {
		t.Error("Comparable wrong")
	}
}

func TestPublicBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lab := monoclass.GenerateWidthControlled(rng, monoclass.WidthParams{N: 600, W: 3, Noise: 0})
	pts := make([]monoclass.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	full, err := monoclass.FullProbe(pts, monoclass.OracleFromLabeled(lab))
	if err != nil || monoclass.Err(lab, full.Classifier) != 0 {
		t.Errorf("FullProbe failed: %v", err)
	}
	erm, err := monoclass.UniformERM(pts, monoclass.OracleFromLabeled(lab), 100, rng)
	if err != nil || erm.Probes != 100 {
		t.Errorf("UniformERM failed: %v probes=%d", err, erm.Probes)
	}
	rbs, err := monoclass.RBS(pts, monoclass.OracleFromLabeled(lab), rng)
	if err != nil || rbs.Probes >= len(pts) {
		t.Errorf("RBS failed: %v probes=%d", err, rbs.Probes)
	}
}

func TestPublicLearn1D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lab := monoclass.GenerateUniform1D(rng, 1000, 0.5, 0)
	pts := make([]monoclass.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	h, sigma, err := monoclass.Learn1D(pts, monoclass.OracleFromLabeled(lab), monoclass.PracticalParams(0.5, 0.05), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) == 0 {
		t.Error("empty sigma")
	}
	if got := monoclass.Err(lab, h); got != 0 {
		t.Errorf("noiseless 1-D err = %d, want 0", got)
	}
}

func TestPublicBudgetAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := monoclass.NewOracle([]monoclass.Label{0, 1, 0, 1})
	budgeted := monoclass.NewBudgetedOracle(base, 2)
	budgeted.Probe(0)
	budgeted.Probe(1)
	if _, err := budgeted.Probe(2); err != monoclass.ErrBudgetExhausted {
		t.Errorf("expected ErrBudgetExhausted, got %v", err)
	}
	noisy := monoclass.NewNoisyOracle(monoclass.NewOracle(make([]monoclass.Label, 100)), 0.5, rng)
	flips := 0
	for i := 0; i < 100; i++ {
		l, err := noisy.Probe(i)
		if err != nil {
			t.Fatal(err)
		}
		if l == monoclass.Positive {
			flips++
		}
	}
	if flips == 0 || flips == 100 {
		t.Error("noisy oracle did not flip plausibly")
	}
}

func TestPublicEntityMatchingPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := monoclass.GenerateCorpus(rng, monoclass.DefaultCorpusParams())
	pairs := monoclass.SampleRecordPairs(rng, recs, monoclass.PairParams{MatchPairs: 50, NonMatchPairs: 50})
	pts := monoclass.PairsToPoints(recs, pairs)
	if len(pts) != 100 || len(pts[0].P) != 4 {
		t.Fatalf("pipeline shape wrong: %d points, dim %d", len(pts), len(pts[0].P))
	}
	sims := monoclass.PairSimilarities(recs[0], recs[0])
	for _, v := range sims {
		if v != 1 {
			t.Error("self-similarity should be 1 on all dimensions")
		}
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	ws := monoclass.Figure1Weighted()
	var buf bytes.Buffer
	if err := monoclass.WriteCSV(&buf, ws); err != nil {
		t.Fatal(err)
	}
	back, err := monoclass.ReadCSV(&buf)
	if err != nil || len(back) != len(ws) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestPublicAnchorSetAndThreshold(t *testing.T) {
	h, err := monoclass.NewAnchorSet(2, []monoclass.Point{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if h.Classify(monoclass.Point{2, 2}) != monoclass.Positive {
		t.Error("anchor classification wrong")
	}
	ws := monoclass.WeightedSet{
		{P: monoclass.Point{1}, Label: monoclass.Negative, Weight: 1},
		{P: monoclass.Point{2}, Label: monoclass.Positive, Weight: 1},
	}
	th, werr := monoclass.BestThreshold1D(ws)
	if werr != 0 || th.Classify(monoclass.Point{2}) != monoclass.Positive {
		t.Error("BestThreshold1D wrong")
	}
}

func TestPublicStreamingThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := monoclass.NewStreamingThreshold(rng)
	var ws monoclass.WeightedSet
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		label := monoclass.Negative
		if x > 0.4 {
			label = monoclass.Positive
		}
		if rng.Float64() < 0.1 {
			label ^= 1
		}
		s.Observe(x, label, 1)
		ws = append(ws, monoclass.WeightedPoint{P: monoclass.Point{x}, Label: label, Weight: 1})
	}
	h, werr := s.Best()
	_, want := monoclass.BestThreshold1D(ws)
	if werr != want {
		t.Errorf("streaming werr %g != batch %g", werr, want)
	}
	if got := monoclass.WErr(ws, h); got != werr {
		t.Errorf("returned threshold achieves %g, reported %g", got, werr)
	}
	if s.Len() == 0 || s.Err(0.4) <= 0 {
		t.Error("accessors wrong")
	}
}

func TestPublicSaveLoadModel(t *testing.T) {
	sol, err := monoclass.OptimalPassive(monoclass.Figure1Weighted())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := monoclass.SaveModel(&buf, sol.Classifier); err != nil {
		t.Fatal(err)
	}
	back, err := monoclass.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := monoclass.WErr(monoclass.Figure1Weighted(), back); got != 104 {
		t.Errorf("loaded model w-err %g, want 104", got)
	}
}

func TestPublicClassifyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h, err := monoclass.NewAnchorSet(2, []monoclass.Point{{0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]monoclass.Point, 10000)
	for i := range pts {
		pts[i] = monoclass.Point{rng.Float64(), rng.Float64()}
	}
	got := monoclass.ClassifyBatch(h, pts)
	if len(got) != len(pts) {
		t.Fatalf("len = %d", len(got))
	}
	for i, p := range pts {
		if got[i] != h.Classify(p) {
			t.Fatalf("batch result differs at %d", i)
		}
	}
	if out := monoclass.ClassifyBatch(h, nil); len(out) != 0 {
		t.Error("empty batch mishandled")
	}
	if out := monoclass.ClassifyBatch(h, pts[:1]); len(out) != 1 || out[0] != h.Classify(pts[0]) {
		t.Error("single-point batch mishandled")
	}
}

// TestNaNRejectedAtEveryIngress: a NaN coordinate makes a point
// dominate and be dominated by everything, so dominance stops being a
// partial order. Every ingress for training points rejects it with an
// error naming the NaN; ±Inf coordinates are ordered and pass.
func TestNaNRejectedAtEveryIngress(t *testing.T) {
	// withCoord returns a small valid set whose third point carries x
	// as its second coordinate.
	withCoord := func(x float64) monoclass.WeightedSet {
		return monoclass.WeightedSet{
			{P: monoclass.Point{0, 0}, Label: monoclass.Negative, Weight: 1},
			{P: monoclass.Point{2, 2}, Label: monoclass.Positive, Weight: 2},
			{P: monoclass.Point{1, x}, Label: monoclass.Negative, Weight: 3},
		}
	}
	// prepareIn prepares ws and requires the route to build the network
	// over mode.
	prepareIn := func(ws monoclass.WeightedSet, mode monoclass.MatrixMode) error {
		p, err := monoclass.PrepareProblem(ws, monoclass.ProblemOptions{})
		if err == nil && p.Mode() != mode {
			err = fmt.Errorf("prepared %v, want %v", p.Mode(), mode)
		}
		return err
	}
	csvCoord := func(x float64) string {
		return fmt.Sprintf("0,0,0,1\n2,2,1,2\n1,%v,0,3\n", x)
	}
	// problemFile is a saved problem over withCoord(x); singleton
	// chains are a valid cover whatever x is.
	problemFile := func(x float64) string {
		coord := `"+inf"`
		switch {
		case math.IsNaN(x):
			coord = `"nan"`
		case math.IsInf(x, -1):
			coord = `"-inf"`
		}
		return `{"format":"monoclass-problem","version":1,"mode":"implicit","dim":2,` +
			`"points":[[0,0],[2,2],[1,` + coord + `]],"labels":[0,1,0],"weights":[1,2,3],` +
			`"chains":[[0],[1],[2]],"width":3,"exact_width":false}`
	}
	ingresses := []struct {
		name string
		feed func(x float64) error
	}{
		{"ReadCSV", func(x float64) error {
			_, err := monoclass.ReadCSV(strings.NewReader(csvCoord(x)))
			return err
		}},
		{"OptimalPassive", func(x float64) error {
			_, err := monoclass.OptimalPassive(withCoord(x))
			return err
		}},
		{"PrepareProblem/implicit", func(x float64) error {
			return prepareIn(withCoord(x), monoclass.ModeImplicit)
		}},
		{"PrepareProblem/dense", func(x float64) error {
			// A third coordinate sends the set down the d ≥ 3 dense route.
			ws := withCoord(x)
			for i := range ws {
				ws[i].P = append(ws[i].P, 0)
			}
			return prepareIn(ws, monoclass.ModeDense)
		}},
		{"LoadProblem", func(x float64) error {
			_, err := monoclass.LoadProblem(strings.NewReader(problemFile(x)))
			return err
		}},
		{"NewOnlineUpdater", func(x float64) error {
			_, err := monoclass.NewOnlineUpdater(2, withCoord(x), monoclass.OnlineConfig{})
			return err
		}},
		{"OnlineUpdater.Apply", func(x float64) error {
			u, err := monoclass.NewOnlineUpdater(2, withCoord(0), monoclass.OnlineConfig{})
			if err != nil {
				return fmt.Errorf("valid initial set: %w", err)
			}
			return u.Apply(monoclass.Delta{Op: monoclass.OpInsert, Point: monoclass.Point{1, x}, Label: monoclass.Positive, Weight: 1})
		}},
	}
	for _, in := range ingresses {
		t.Run(in.name, func(t *testing.T) {
			err := in.feed(math.NaN())
			if err == nil || !strings.Contains(err.Error(), "NaN") {
				t.Errorf("NaN coordinate: err = %v, want an error naming the NaN", err)
			}
			for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
				if err := in.feed(inf); err != nil {
					t.Errorf("%v coordinate rejected: %v", inf, err)
				}
			}
		})
	}
}
