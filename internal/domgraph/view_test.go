package domgraph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// sortRanks is the comparator-sort reference for NewImplicit's ranks:
// (value, index) records sorted by cmp.Compare, dense ranks over
// distinct values.
func sortRanks(pts []geom.Point, k int) []int32 {
	type valIdx struct {
		v float64
		i int32
	}
	order := make([]valIdx, len(pts))
	for i, p := range pts {
		order[i] = valIdx{p[k], int32(i)}
	}
	slices.SortFunc(order, func(a, b valIdx) int { return cmp.Compare(a.v, b.v) })
	rk := make([]int32, len(pts))
	r := int32(0)
	for pos, e := range order {
		if pos > 0 && e.v != order[pos-1].v {
			r++
		}
		rk[e.i] = r
	}
	return rk
}

// sortOrder is the (x1, …, xd, index) order by a comparator sort.
func sortOrder(pts []geom.Point) []int32 {
	order := make([]int32, len(pts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		for k := range pts[a] {
			if c := cmp.Compare(pts[a][k], pts[b][k]); c != 0 {
				return c
			}
		}
		return 0
	})
	return order
}

// TestImplicitRanksMatchSort holds the radix ranks and order to the
// comparator sort on columns built to trip an order-preserving key:
// signed zeros, infinities, subnormals, the largest finite values,
// all-equal and heavily duplicated columns, at sizes around a word
// and past the int16 range. NaN input answers through the scalar
// fallback.
func TestImplicitRanksMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	special := []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, -0.5,
	}
	columns := map[string]func(i int) float64{
		"special":  func(int) float64 { return special[rng.Intn(len(special))] },
		"uniform":  func(int) float64 { return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20)) },
		"equal":    func(int) float64 { return 3.25 },
		"dup":      func(int) float64 { return float64(rng.Intn(3)) - 1 },
		"signbits": func(i int) float64 { return math.Float64frombits(rng.Uint64()) },
		"index":    func(i int) float64 { return float64(i % 97) },
	}
	names := []string{"dup", "equal", "index", "signbits", "special", "uniform"}
	for _, n := range []int{1, 2, 63, 64, 65, 4096, 70000} {
		for _, a := range names {
			for _, b := range names {
				if n > 65 && b != "dup" && b != "special" {
					continue // large sets pair each column with heavy ties only
				}
				pts := make([]geom.Point, n)
				for i := range pts {
					pts[i] = geom.Point{columns[a](i), columns[b](i)}
					if math.IsNaN(pts[i][1]) {
						pts[i][1] = 0 // "signbits" draws NaN now and then
					}
					if math.IsNaN(pts[i][0]) {
						pts[i][0] = 0
					}
				}
				v := NewImplicit(pts)
				for k := 0; k < 2; k++ {
					if got, want := v.Rank(k), sortRanks(pts, k); !slices.Equal(got, want) {
						t.Fatalf("n=%d %s×%s: dimension %d ranks differ from the sort's", n, a, b, k)
					}
				}
				if !slices.Equal(v.Order(), sortOrder(pts)) {
					t.Fatalf("n=%d %s×%s: order differs from the sort's", n, a, b)
				}
				if n <= 65 {
					checkViewAgainstNaive(t, fmt.Sprintf("n=%d %s×%s", n, a, b), v, pts)
				}
			}
		}
	}
	nan := math.NaN()
	pts := []geom.Point{{nan, 1}, {1, 1}, {0, nan}, {2, 2}, {nan, nan}}
	checkViewAgainstNaive(t, "nan", NewImplicit(pts), pts)
	if got, want := NewImplicit(pts).Order(), sortOrder(pts); !slices.Equal(got, want) {
		t.Fatalf("NaN order %v, sort's %v", got, want)
	}
}
