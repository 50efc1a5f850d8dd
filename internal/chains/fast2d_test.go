package chains

import (
	"math/rand"
	"testing"

	"monoclass/internal/geom"
)

func TestDecompose2DMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		pts := randPoints(rng, n, 2, 6)
		fast := Decompose2D(pts)
		checkDecomposition(t, pts, fast)
		slow := decomposeDense(pts)
		if fast.Width != slow.Width {
			t.Fatalf("trial %d: fast width %d != generic %d", trial, fast.Width, slow.Width)
		}
	}
}

func TestDecompose2DContinuousCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64(), rng.Float64()}
		}
		dec := Decompose2D(pts)
		checkDecomposition(t, pts, dec)
		if got := Width2D(pts); got != dec.Width {
			t.Fatalf("trial %d: width mismatch %d vs %d", trial, dec.Width, got)
		}
	}
}

func TestDecompose2DEdgeCases(t *testing.T) {
	if dec := Decompose2D(nil); dec.Width != 0 {
		t.Error("empty should be width 0")
	}
	one := []geom.Point{{3, 4}}
	dec := Decompose2D(one)
	checkDecomposition(t, one, dec)
	if dec.Width != 1 {
		t.Error("single point width 1")
	}
	// Duplicates stack onto one chain.
	dup := []geom.Point{{1, 1}, {1, 1}, {1, 1}}
	dec = Decompose2D(dup)
	checkDecomposition(t, dup, dec)
	if dec.Width != 1 {
		t.Errorf("duplicates width %d, want 1", dec.Width)
	}
}

// TestDecompose2DDuplicatesInInputOrder: exact duplicates sit in one
// pile in input order, whatever order the sort visits them in, so the
// piles do not depend on the sort algorithm.
func TestDecompose2DDuplicatesInInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := randPoints(rng, 500, 2, 4) // ~30 copies of each grid point
	dec := Decompose2D(pts)
	checkDecomposition(t, pts, dec)
	for c, chain := range dec.Chains {
		for k := 1; k < len(chain); k++ {
			if pts[chain[k]].Equal(pts[chain[k-1]]) && chain[k] < chain[k-1] {
				t.Fatalf("chain %d: duplicate %d placed after %d", c, chain[k], chain[k-1])
			}
		}
	}
}

func TestDecompose2DPanicsOnWrongDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Decompose2D([]geom.Point{{1, 2, 3}})
}

func TestDecompose1D(t *testing.T) {
	pts := []geom.Point{{5}, {1}, {3}}
	dec := Decompose1D(pts)
	checkDecomposition(t, pts, dec)
	if dec.Width != 1 {
		t.Errorf("width %d, want 1", dec.Width)
	}
	if dec := Decompose1D(nil); dec.Width != 0 {
		t.Error("empty should be width 0")
	}
}

func TestDecomposeDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	// All dimensions must produce valid decompositions through the
	// dispatching entry point.
	for _, d := range []int{1, 2, 3, 4} {
		pts := randPoints(rng, 30, d, 5)
		dec := Decompose(pts)
		checkDecomposition(t, pts, dec)
		if want := decomposeDense(pts).Width; dec.Width != want {
			t.Errorf("d=%d: dispatch width %d != generic %d", d, dec.Width, want)
		}
	}
}

func TestDecompose2DLargeScale(t *testing.T) {
	// The fast path must handle 200k points comfortably.
	rng := rand.New(rand.NewSource(73))
	n := 200000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64()}
	}
	dec := Decompose2D(pts)
	if err := ValidateDecomposition(pts, dec.Chains); err != nil {
		t.Fatal(err)
	}
	if err := ValidateAntichain(pts, dec.Antichain); err != nil {
		t.Fatal(err)
	}
	if dec.Width != Width2D(pts) {
		t.Errorf("width mismatch at scale")
	}
}
