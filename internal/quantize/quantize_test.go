package quantize

import (
	"math/rand"
	"testing"
	"testing/quick"

	"monoclass/internal/chains"
	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/problem"
)

func randPts(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// Quantization must preserve dominance: p ⪰ q ⟹ Q(p) ⪰ Q(q).
func TestQuantizersPreserveDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		pts := randPts(rng, 2+rng.Intn(20), 2)
		q := Uniform(pts, 1+rng.Intn(6))
		for i := range pts {
			for j := range pts {
				if i != j && geom.Dominates(pts[i], pts[j]) && !geom.Dominates(q[i], q[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUniformBasics(t *testing.T) {
	pts := []geom.Point{{0, 0}, {0.49, 1}, {0.51, 0.2}, {1, 0.8}}
	q := Uniform(pts, 2)
	// Grid {0, 0.5, 1} per dimension.
	want := []geom.Point{{0, 0}, {0.5, 1}, {0.5, 0.2}, {1, 0.8}}
	for i := range want {
		if q[i][0] != want[i][0] {
			t.Errorf("point %d: x = %g, want %g", i, q[i][0], want[i][0])
		}
	}
	// Input untouched.
	if pts[1][0] != 0.49 {
		t.Error("Uniform mutated its input")
	}
	if Uniform(nil, 3) != nil {
		t.Error("empty input should give nil")
	}
	// Constant dimension survives (span 0).
	flat := []geom.Point{{5, 1}, {5, 2}}
	qf := Uniform(flat, 4)
	if qf[0][0] != 5 || qf[1][0] != 5 {
		t.Error("constant dimension distorted")
	}
}

func TestQuantizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uniform with 0 levels: expected panic")
		}
	}()
	Uniform([]geom.Point{{1}}, 0)
}

// Quantization must not increase the dominance width.
func TestQuantizationReducesWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPts(rng, 400, 2)
	w0 := chains.Width(pts)
	for _, lv := range []int{16, 8, 4, 2} {
		wq := chains.Width(Uniform(pts, lv))
		if wq > w0 {
			t.Errorf("levels=%d: width grew %d -> %d", lv, w0, wq)
		}
	}
	// Coarse quantization should collapse the width substantially.
	if wq := chains.Width(Uniform(pts, 2)); wq >= w0/2 {
		t.Errorf("levels=2: width %d not well below original %d", wq, w0)
	}
}

func TestComposedMonotoneAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPts(rng, 200, 2)
	q := Uniform(pts, 4)
	h := classifier.MustAnchorSet(2, []geom.Point{q[0], q[1]})
	// The batch Uniform grid depends on the batch's min/max, so the
	// pointwise quantizer for composition must be fixed up front.
	fixed := func(p geom.Point) geom.Point {
		out := make(geom.Point, len(p))
		for k, v := range p {
			out[k] = float64(int(v*4)) / 4
		}
		return out
	}
	wrapped := Composed{Inner: h, Quant: fixed}
	if ok, p, qq := classifier.IsMonotoneOn(pts, wrapped); !ok {
		t.Errorf("composed classifier not monotone: %v vs %v", p, qq)
	}
}

// The tradeoff sweep reports shrinking width and non-decreasing k* as
// levels coarsen.
func TestTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var lab []geom.LabeledPoint
	for i := 0; i < 300; i++ {
		p := geom.Point{rng.Float64(), rng.Float64()}
		label := geom.Negative
		if p[0]+p[1] > 1 {
			label = geom.Positive
		}
		if rng.Float64() < 0.05 {
			label ^= 1
		}
		lab = append(lab, geom.LabeledPoint{P: p, Label: label})
	}
	kstar := func(ws geom.WeightedSet) (float64, error) {
		sol, err := problem.Solve(ws)
		return sol.WErr, err
	}
	stats, err := Tradeoff(lab, []int{32, 8, 2}, kstar)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("got %d stats", len(stats))
	}
	if !(stats[0].Width >= stats[1].Width && stats[1].Width >= stats[2].Width) {
		t.Errorf("width not non-increasing: %+v", stats)
	}
	if stats[2].KStar < stats[0].KStar {
		t.Errorf("coarser grid should not reduce k*: %+v", stats)
	}
}
