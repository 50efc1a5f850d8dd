package chains

import (
	"math/rand"
	"testing"

	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

func randomKernelPoints(rng *rand.Rand, n, d, gridSide int) []geom.Point {
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

// decomposeDense runs the dense Lemma 6 construction at any d, as
// DecomposeRoute does at d ≥ 3 within its limit.
func decomposeDense(pts []geom.Point) Decomposition {
	dec, _ := DecomposeMatrixStats(pts, domgraph.Build(pts))
	return dec
}

// TestDecomposeGenericMatchesScalar: the bitset path and the scalar
// oracle must agree on the width and both must produce valid
// decompositions and antichain certificates, across dimensions and
// duplicate-heavy grids.
func TestDecomposeGenericMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 15; trial++ {
			n := 1 + rng.Intn(100)
			pts := randomKernelPoints(rng, n, d, 2+rng.Intn(5))
			fast := decomposeDense(pts)
			slow := DecomposeGenericScalar(pts)
			if fast.Width != slow.Width {
				t.Fatalf("d=%d n=%d: bitset width %d != scalar width %d", d, n, fast.Width, slow.Width)
			}
			for name, dec := range map[string]Decomposition{"bitset": fast, "scalar": slow} {
				if err := ValidateDecomposition(pts, dec.Chains); err != nil {
					t.Fatalf("d=%d n=%d %s: %v", d, n, name, err)
				}
				if err := ValidateAntichain(pts, dec.Antichain); err != nil {
					t.Fatalf("d=%d n=%d %s: %v", d, n, name, err)
				}
				if len(dec.Antichain) != dec.Width {
					t.Fatalf("d=%d n=%d %s: antichain %d != width %d", d, n, name, len(dec.Antichain), dec.Width)
				}
			}
		}
	}
}

// TestDecomposeMatrixReuse: a prebuilt matrix must give the same
// result as the route, which builds its own.
func TestDecomposeMatrixReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := randomKernelPoints(rng, 80, 4, 4)
	m := domgraph.Build(pts)
	a, _ := DecomposeMatrixStats(pts, m)
	b := Decompose(pts)
	if a.Width != b.Width {
		t.Fatalf("width %d != %d", a.Width, b.Width)
	}
	if err := ValidateDecomposition(pts, a.Chains); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeMatrixSizeMismatchPanics(t *testing.T) {
	pts := randomKernelPoints(rand.New(rand.NewSource(23)), 10, 2, 3)
	m := domgraph.Build(pts[:9])
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch must panic")
		}
	}()
	DecomposeMatrixStats(pts, m)
}

// BenchmarkDecomposeGeneric compares the scalar Lemma 6 construction
// with the kernel-backed path at the acceptance scale (n=4096, d=4).
func BenchmarkDecomposeGeneric(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	pts := make([]geom.Point, 4096)
	for i := range pts {
		p := make(geom.Point, 4)
		for k := range p {
			p[k] = rng.Float64()
		}
		pts[i] = p
	}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if dec := DecomposeGenericScalar(pts); dec.Width == 0 {
				b.Fatal("zero width")
			}
		}
	})
	b.Run("bitset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if dec := Decompose(pts); dec.Width == 0 {
				b.Fatal("zero width")
			}
		}
	})
}
