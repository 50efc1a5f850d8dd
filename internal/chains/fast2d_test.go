package chains

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
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
	if len(dec.Antichain) != dec.Width {
		t.Errorf("antichain of %d points for width %d", len(dec.Antichain), dec.Width)
	}
}

// patience2DSorted is the comparator-sort reference for Decompose2D:
// (x, y, index) records sorted by cmp.Compare, then the patience pass
// on -y values.
func patience2DSorted(pts []geom.Point) Decomposition {
	type xyIdx struct {
		x, y float64
		i    int
	}
	order := make([]xyIdx, len(pts))
	for i, p := range pts {
		order[i] = xyIdx{p[0], p[1], i}
	}
	slices.SortFunc(order, func(a, b xyIdx) int {
		if c := cmp.Compare(a.x, b.x); c != 0 {
			return c
		}
		if c := cmp.Compare(a.y, b.y); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	var (
		piles [][]int
		tops  []float64
		ptr   = make([]int, len(pts))
	)
	for _, r := range order {
		idx, v := r.i, -r.y
		lo, hi := 0, len(tops)
		for lo < hi {
			mid := (lo + hi) / 2
			if tops[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(tops) {
			piles = append(piles, nil)
			tops = append(tops, 0)
		}
		ptr[idx] = -1
		if lo > 0 {
			prev := piles[lo-1]
			ptr[idx] = prev[len(prev)-1]
		}
		piles[lo] = append(piles[lo], idx)
		tops[lo] = v
	}
	var anti []int
	last := piles[len(piles)-1]
	for cur := last[len(last)-1]; cur != -1; cur = ptr[cur] {
		anti = append(anti, cur)
	}
	sort.Ints(anti)
	return Decomposition{Chains: piles, Width: len(piles), Antichain: anti}
}

// sixteenChains draws n points on 16 parallel diagonals, the
// train-chains-d2 benchmark's shape: point (t+j, t+16-j) for a uniform
// t in [0, 64) and chain j.
func sixteenChains(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		t, j := rng.Float64()*64, float64(rng.Intn(16))
		pts[i] = geom.Point{t + j, t + 16 - j}
	}
	return pts
}

// TestDecompose2DMatchesComparatorOrder: walking the radix build's
// order over y ranks yields the very piles and antichain the
// comparator-sorted patience pass did, on the 16-chain shape, an
// integer grid full of duplicates, and sets where −0 and +0 tie.
func TestDecompose2DMatchesComparatorOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	nzero := math.Copysign(0, -1)
	var sets [][]geom.Point
	for _, n := range []int{1, 64, 1000, 20000} {
		sets = append(sets, sixteenChains(rng, n), randPoints(rng, n, 2, 9))
	}
	for trial := 0; trial < 20; trial++ {
		pts := make([]geom.Point, 1+rng.Intn(200))
		for i := range pts {
			c := [4]float64{nzero, 0, -1, 1}
			pts[i] = geom.Point{c[rng.Intn(4)], c[rng.Intn(4)]}
		}
		sets = append(sets, pts)
	}
	for si, pts := range sets {
		got, want := Decompose2D(pts), patience2DSorted(pts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d (n=%d): radix-order piles differ from the sorted run's", si, len(pts))
		}
		route := DecomposeRoute(pts, 0)
		if !reflect.DeepEqual(route.Decomposition, want) || route.Implicit == nil || route.Matrix != nil {
			t.Fatalf("set %d: the route's fast path differs from the sorted run's", si)
		}
	}
}
