package domgraph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"monoclass/internal/geom"
)

// randomPoints draws n points in d dimensions from a small integer
// grid so that dominance relations, ties, and exact duplicates all
// occur with non-trivial probability.
func randomPoints(rng *rand.Rand, n, d, gridSide int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = float64(rng.Intn(gridSide))
		}
		pts[i] = p
	}
	return pts
}

// TestBuildMatchesNaivePairwise is the kernel's ground-truth property
// test: every bit of the parallel pruned build must match a scalar
// geom.Dominates / DominanceEdge evaluation, across dimensions and
// with duplicate points present.
func TestBuildMatchesNaivePairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(120)
			grid := 2 + rng.Intn(4) // tiny grid => many duplicates
			pts := randomPoints(rng, n, d, grid)
			m := Build(pts)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					wantDom := geom.Dominates(pts[i], pts[j])
					if got := m.Dominates(i, j); got != wantDom {
						t.Fatalf("d=%d n=%d: Dominates(%d,%d)=%v, want %v (p=%v q=%v)",
							d, n, i, j, got, wantDom, pts[i], pts[j])
					}
					wantEdge := DominanceEdge(pts, i, j)
					if got := m.Edge(i, j); got != wantEdge {
						t.Fatalf("d=%d n=%d: Edge(%d,%d)=%v, want %v (p=%v q=%v)",
							d, n, i, j, got, wantEdge, pts[i], pts[j])
					}
				}
			}
		}
	}
}

// TestBuildMatchesBuildNaive checks the two builders bit-for-bit,
// including at worker counts that do not divide the row count.
func TestBuildMatchesBuildNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 63, 64, 65, 200, 513} {
		pts := randomPoints(rng, n, 3, 5)
		want := BuildNaive(pts)
		for _, workers := range []int{1, 2, 3, 7} {
			got := build(pts, workers)
			if !slices.Equal(got.order, want.order) || !slices.Equal(got.run, want.run) || len(got.tri) != len(want.tri) {
				t.Fatalf("n=%d workers=%d: order, runs or triangle size differ", n, workers)
			}
			for w := range want.tri {
				if got.tri[w] != want.tri[w] {
					t.Fatalf("n=%d workers=%d: triangle word %d: %#x != %#x", n, workers, w, got.tri[w], want.tri[w])
				}
			}
		}
	}
}

// TestSumLexOrderIsLinearExtension: every DAG edge i → j (i above j,
// duplicates by index) puts i after j, also for points holding both
// +Inf and −Inf, whose plain coordinate sum is NaN — the property the
// triangle rests on.
func TestSumLexOrderIsLinearExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		d := 1 + trial%4
		pts := randomViewPoints(rng, 2+rng.Intn(60), d, true)
		pos := make([]int, len(pts))
		for r, idx := range SumLexOrder(pts) {
			pos[idx] = r
		}
		for i := range pts {
			for j := range pts {
				if DominanceEdge(pts, i, j) && pos[i] < pos[j] {
					t.Fatalf("trial %d (d=%d): %v → %v, but it sorts first", trial, d, pts[i], pts[j])
				}
			}
		}
	}
}

// TestBuildAllocatesTriangle: Build at n=8192 d=3 allocates the
// triangle (4 MiB) and little else — under 6 MiB in all, where a full
// n×n closure and DAG relation would take 16 MiB.
func TestBuildAllocatesTriangle(t *testing.T) {
	pts := benchPoints(8192, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := Build(pts)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Build allocated %.2f MiB (triangle %.2f MiB)", float64(got)/(1<<20), float64(Footprint(8192))/(1<<20))
	if got >= 6<<20 {
		t.Fatalf("Build allocated %.2f MiB, want < 6 MiB", float64(got)/(1<<20))
	}
}

// TestDAGAcyclicOnDuplicates: coordinate-equal points must chain by
// index, never both directions.
func TestDAGAcyclicOnDuplicates(t *testing.T) {
	pts := []geom.Point{{1, 1}, {1, 1}, {1, 1}, {0, 2}}
	m := Build(pts)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			if !m.Dominates(i, j) {
				t.Fatalf("duplicate pair (%d,%d) must mutually dominate", i, j)
			}
			if m.Edge(i, j) != (i > j) {
				t.Fatalf("Edge(%d,%d)=%v, want index tiebreak %v", i, j, m.Edge(i, j), i > j)
			}
		}
	}
	if m.Edge(0, 3) || m.Edge(3, 0) {
		t.Fatal("incomparable points must have no DAG edge")
	}
}

func TestCountViolationsMatchesGeom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(4)
		n := 1 + rng.Intn(150)
		pts := randomPoints(rng, n, d, 3)
		lab := make([]geom.LabeledPoint, n)
		labels := make([]geom.Label, n)
		for i := range lab {
			labels[i] = geom.Label(rng.Intn(2))
			lab[i] = geom.LabeledPoint{P: pts[i], Label: labels[i]}
		}
		m := Build(pts)
		if got, want := m.CountViolations(labels), geom.MonotoneViolations(lab); got != want {
			t.Fatalf("trial %d: CountViolations %d != MonotoneViolations %d", trial, got, want)
		}
	}
}

func TestIsAntichain(t *testing.T) {
	pts := []geom.Point{{0, 3}, {1, 2}, {2, 1}, {3, 0}, {3, 3}, {1, 2}}
	m := Build(pts)
	if !m.IsAntichain([]int{0, 1, 2, 3}) {
		t.Fatal("staircase must be an antichain")
	}
	if m.IsAntichain([]int{0, 4}) {
		t.Fatal("(0,3) vs (3,3) are comparable")
	}
	if m.IsAntichain([]int{1, 5}) {
		t.Fatal("duplicate points are comparable")
	}
	if m.IsAntichain([]int{2, 2}) {
		t.Fatal("repeated index is not an antichain")
	}
	if !m.IsAntichain(nil) || !m.IsAntichain([]int{4}) {
		t.Fatal("empty and singleton sets are antichains")
	}
}
