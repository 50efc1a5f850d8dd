package domgraph

import (
	"math"
	"math/rand"
	"testing"

	"monoclass/internal/geom"
)

// randomViewPoints draws a point set with deliberate ties (small
// coordinate alphabet) and, optionally, ±Inf coordinates and exact
// duplicate points.
func randomViewPoints(rng *rand.Rand, n, d int, withInf bool) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = float64(rng.Intn(7))
			if withInf && rng.Intn(11) == 0 {
				p[k] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		pts[i] = p
	}
	// Exact duplicates: copy earlier points over later slots.
	for i := range pts {
		if i > 0 && rng.Intn(5) == 0 {
			pts[i] = pts[rng.Intn(i)].Clone()
		}
	}
	return pts
}

// checkViewAgainstNaive holds one View's Dominates to exact agreement
// with the scalar definition, geom.Dominates, on every ordered pair.
func checkViewAgainstNaive(t *testing.T, tag string, v View, pts []geom.Point) {
	t.Helper()
	for i := range pts {
		for j := range pts {
			if got, want := v.Dominates(i, j), geom.Dominates(pts[i], pts[j]); got != want {
				t.Fatalf("%s: Dominates(%d,%d) = %v, want %v (pts %v vs %v)", tag, i, j, got, want, pts[i], pts[j])
			}
		}
	}
}

func TestViewsMatchNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(130)
		d := 1 + rng.Intn(4)
		pts := randomViewPoints(rng, n, d, trial%2 == 0)
		checkViewAgainstNaive(t, "implicit", NewImplicit(pts), pts)
		checkViewAgainstNaive(t, "dense", Build(pts), pts)
	}
}

// TestViewsMatchNaiveAdversarial runs hand-built corner sets through
// both views: Implicit through every case, the dense Matrix (defined
// on NaN-free points only) through the NaN-free ones, where Build must
// also equal BuildNaive bit for bit.
func TestViewsMatchNaiveAdversarial(t *testing.T) {
	nan, pinf, ninf, nzero := math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)
	cases := [][]geom.Point{
		// NaN everywhere it can hide: alone, with duplicates, mixed.
		{{nan, 1}, {1, 1}, {1, nan}, {nan, nan}, {1, 1}},
		{{nan}, {nan}, {0}},
		// ±Inf corners and duplicates.
		{{pinf, ninf}, {ninf, pinf}, {pinf, pinf}, {ninf, ninf}, {pinf, pinf}, {0, 0}},
		{{pinf}, {pinf}, {ninf}, {ninf}, {0}},
		// All-duplicate set: pure tiebreak territory.
		{{2, 3}, {2, 3}, {2, 3}, {2, 3}},
		// Zero-dimensional points: everything dominates everything.
		{{}, {}, {}},
		// Mixed NaN + Inf + duplicates.
		{{nan, pinf}, {pinf, nan}, {pinf, pinf}, {pinf, pinf}, {ninf, ninf}, {nan, nan}},
		// −0 and +0 are equal coordinates, so points that differ only
		// in a zero's sign are duplicates.
		{{nzero, 1}, {0, 1}, {0, nzero}, {nzero, nzero}, {1, 0}, {nzero, 0}, {0, 0}},
	}
	for ci, pts := range cases {
		tag := "case " + string(rune('A'+ci))
		checkViewAgainstNaive(t, "implicit "+tag, NewImplicit(pts), pts)
		if scalarOnly(pts) && len(pts[0]) > 0 {
			continue // NaN: outside the matrix's domain
		}
		m := Build(pts)
		checkViewAgainstNaive(t, "dense "+tag, m, pts)
		if d := Diff(m, BuildNaive(pts)); d != "" {
			t.Fatalf("dense %s: Build vs BuildNaive: %s", tag, d)
		}
	}
}
