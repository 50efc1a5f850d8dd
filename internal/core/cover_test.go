package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/geom"
	"monoclass/internal/oracle"
	"monoclass/internal/problem"
)

// TestActiveLearnDenseGuard: one point past the exact limit at d=3,
// ActiveLearn takes the route's greedy fallback instead of building
// the dense matrix (a 256 MiB triangle at this n), reports it, and
// probes along the cover problem.Prepare builds for the same points.
func TestActiveLearnDenseGuard(t *testing.T) {
	const width = 16
	n := problem.DefaultExactDecomposeLimit + 1
	ws := make(geom.WeightedSet, n)
	pts := make([]geom.Point, n)
	labels := make([]geom.Label, n)
	for i := range pts {
		tt, j := float64(i/width), float64(i%width)
		pts[i] = geom.Point{tt + j, tt + j, tt + width - j}
		if tt >= float64(n/width/2) {
			labels[i] = geom.Positive
		}
		ws[i] = geom.WeightedPoint{P: pts[i], Label: labels[i], Weight: 1}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := ActiveLearn(pts, oracle.NewStatic(labels), PracticalParams(0.5, 0.05), rand.New(rand.NewSource(1)))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 256 << 20
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc >= limit {
		t.Fatalf("ActiveLearn over %d points allocated %d MiB, want < %d", n, alloc>>20, limit>>20)
	}
	t.Logf("ActiveLearn over %d points allocated %d MiB (width %d, %d probes)", n, alloc>>20, res.Width, res.Probes)
	if res.ExactWidth || res.Path != chains.PathGreedyFallback {
		t.Fatalf("exact %v, path %q; want the greedy fallback", res.ExactWidth, res.Path)
	}
	p, err := problem.Prepare(ws, problem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Width != p.Width() {
		t.Fatalf("width %d, problem.Prepare's %d", res.Width, p.Width())
	}
}

// TestSigmaOnInheritedCover: Σ solved over P's cover restricted to it
// gives problem.Solve(Σ)'s optimum and model, through ActiveLearn's own
// route and through a caller-supplied greedy cover. Points are drawn
// at d=1–4 with ±Inf coordinates, and each appears 1–4 times, so Σ
// coalesces copies that sit on different chains.
func TestSigmaOnInheritedCover(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 90; trial++ {
		d := 1 + rng.Intn(4)
		pts, labels := copiesWithInf(rng, 20+rng.Intn(150), d)
		par := PracticalParams([]float64{0, 0.3, 1}[trial%3], 0.05)
		par.BaseCase = 2

		res, err := ActiveLearn(pts, oracle.NewStatic(labels), par, rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.ExactWidth || res.Width != chains.Width(pts) {
			t.Fatalf("trial %d: exact %v, width %d, want the exact width %d", trial, res.ExactWidth, res.Width, chains.Width(pts))
		}
		checkSigmaSolve(t, trial, res)

		greedy := chains.GreedyDecompose(pts)
		res, err = ActiveLearnChains(pts, oracle.NewStatic(labels), par, rand.New(rand.NewSource(int64(trial))), greedy)
		if err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		if res.ExactWidth || res.Path != PathSupplied || res.Width != len(greedy) {
			t.Fatalf("trial %d greedy: exact %v, path %q, width %d", trial, res.ExactWidth, res.Path, res.Width)
		}
		checkSigmaSolve(t, trial, res)
	}
}

// copiesWithInf draws m grid points near the diagonal, some equal and
// some with ±Inf coordinates, labels them by a noisy threshold, and
// repeats each 1–4 times (its weight, as copies) in shuffled order.
func copiesWithInf(rng *rand.Rand, m, d int) ([]geom.Point, []geom.Label) {
	var pts []geom.Point
	var labels []geom.Label
	for i := 0; i < m; i++ {
		t := float64(rng.Intn(30))
		p := make(geom.Point, d)
		for k := range p {
			switch rng.Intn(20) {
			case 0:
				p[k] = math.Inf(1)
			case 1:
				p[k] = math.Inf(-1)
			default:
				p[k] = t + float64(rng.Intn(4))
			}
		}
		label := geom.Negative
		if (t >= 15) != (rng.Intn(6) == 0) {
			label = geom.Positive
		}
		for c := 1 + rng.Intn(4); c > 0; c-- {
			pts = append(pts, p)
			labels = append(labels, label)
		}
	}
	rng.Shuffle(len(pts), func(a, b int) {
		pts[a], pts[b] = pts[b], pts[a]
		labels[a], labels[b] = labels[b], labels[a]
	})
	return pts, labels
}

// checkSigmaSolve holds res to problem.Solve(res.Sigma), which builds
// Σ's own minimum cover and network. With integral weights the flow
// arithmetic is exact, the minimal min cut is the same in both
// networks, and optimum and anchors must match bit for bit. The
// sampler's weights (population/sample size) are not dyadic: both are
// max-flow values summed in each network's own push order, so they
// may differ in the last bits, and a rounding residue can tip an
// exact tie between two optimal cuts either way; then both models
// must still be optimal on Σ.
func checkSigmaSolve(t *testing.T, trial int, res Result) {
	t.Helper()
	want, err := problem.Solve(res.Sigma)
	if err != nil {
		t.Fatalf("trial %d: problem.Solve(Σ): %v", trial, err)
	}
	integral := true
	for _, wp := range res.Sigma {
		integral = integral && wp.Weight == math.Trunc(wp.Weight)
	}
	a, b := res.Classifier.Anchors(), want.Classifier.Anchors()
	if integral {
		if res.SigmaWErr != want.WErr || !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d (%s): SigmaWErr %v anchors %v, problem.Solve(Σ) %v anchors %v", trial, res.Path, res.SigmaWErr, a, want.WErr, b)
		}
		return
	}
	near := func(x float64) bool { return math.Abs(x-want.WErr) <= 1e-12*math.Max(1, want.WErr) }
	if !near(res.SigmaWErr) {
		t.Fatalf("trial %d (%s): SigmaWErr %v, problem.Solve(Σ) %v", trial, res.Path, res.SigmaWErr, want.WErr)
	}
	if !reflect.DeepEqual(a, b) && !near(geom.WErr(res.Sigma, res.Classifier.Classify)) {
		t.Fatalf("trial %d (%s): anchors %v, problem.Solve(Σ) %v, and the model is not optimal on Σ", trial, res.Path, a, b)
	}
}
