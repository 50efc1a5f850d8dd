package classidx

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"monoclass/internal/geom"
	"monoclass/internal/skyline"
)

// scalarClassify is the oracle: the literal anchor scan with the exact
// "!(p[k] < a[k])" comparison of geom.Dominates.
func scalarClassify(anchors []geom.Point, p geom.Point) geom.Label {
	for _, a := range anchors {
		ok := true
		for k := range a {
			if p[k] < a[k] {
				ok = false
				break
			}
		}
		if ok {
			return geom.Positive
		}
	}
	return geom.Negative
}

// specials are the coordinate values that exercise every comparison
// edge: finite, infinite, NaN, and denormal-scale magnitudes.
var specials = []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, -0.0, 1, -1, 1e308, -1e308, 5e-324}

// randomCoord draws a coordinate that is special with probability ~1/4.
func randomCoord(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return math.Floor(rng.Float64()*16) - 8 // small grid: dense ties
}

// randomAntichain draws random points (with special coordinates and
// duplicates) and prunes them to their minimal antichain.
func randomAntichain(rng *rand.Rand, n, d int) []geom.Point {
	raw := make([]geom.Point, n)
	for i := range raw {
		p := make(geom.Point, d)
		for k := range p {
			v := randomCoord(rng)
			if math.IsNaN(v) {
				v = math.Inf(-1) // anchors: NaN is normalized anyway; keep oracle simple
			}
			p[k] = v
		}
		raw[i] = p
	}
	return skyline.Filter(raw, skyline.Minimal(raw))
}

// randomQuery draws a query point, NaN and infinities included.
func randomQuery(rng *rand.Rand, d int) geom.Point {
	p := make(geom.Point, d)
	for k := range p {
		p[k] = randomCoord(rng)
	}
	return p
}

// TestClassifyMatchesScalar is the main differential: across every
// layout (d = 1, 2, tiny d >= 3, bit-matrix d >= 3), Classify and
// ClassifyBatchInto must agree with the scalar scan on queries that
// include NaN, ±Inf, exact anchor coordinates, and duplicates.
func TestClassifyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(6)
		n := rng.Intn(80)
		if trial%7 == 0 {
			n = rng.Intn(200) // push past tinyAnchors into the bit matrix
		}
		anchors := randomAntichain(rng, n, d)
		ix := Build(d, anchors)

		queries := make([]geom.Point, 0, 64)
		for i := 0; i < 48; i++ {
			queries = append(queries, randomQuery(rng, d))
		}
		for _, a := range anchors {
			if len(queries) >= 64 {
				break
			}
			queries = append(queries, a.Clone()) // exact anchor hits
		}

		for _, q := range queries {
			got, want := ix.Classify(q), scalarClassify(anchors, q)
			if got != want {
				t.Fatalf("trial %d (d=%d, m=%d): Classify(%v) = %v, scalar says %v",
					trial, d, len(anchors), q, got, want)
			}
		}

		dst := make([]geom.Label, len(queries))
		ix.ClassifyBatchInto(dst, queries)
		for i, q := range queries {
			if want := scalarClassify(anchors, q); dst[i] != want {
				t.Fatalf("trial %d (d=%d, m=%d): batch[%d] (%v) = %v, scalar says %v",
					trial, d, len(anchors), i, q, dst[i], want)
			}
		}
	}
}

// TestNaNAnchorNormalization: a NaN anchor coordinate behaves exactly
// like -Inf under the scalar comparison, and the index must reproduce
// that.
func TestNaNAnchorNormalization(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4} {
		anchor := make(geom.Point, d)
		for k := range anchor {
			anchor[k] = 1
		}
		anchor[0] = math.NaN()
		anchors := []geom.Point{anchor}
		ix := Build(d, anchors)
		q := make(geom.Point, d)
		for k := range q {
			q[k] = 2
		}
		q[0] = -1e308 // far below any finite coordinate: only NaN/-Inf pass
		if got, want := ix.Classify(q), scalarClassify(anchors, q); got != want {
			t.Errorf("d=%d: NaN-anchor Classify = %v, scalar says %v", d, got, want)
		}
	}
}

// TestBottomAnchor: the ConstPositive bottom anchor (-Inf everywhere)
// classifies everything positive — including all-NaN queries.
func TestBottomAnchor(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		bottom := make(geom.Point, d)
		nan := make(geom.Point, d)
		for k := range bottom {
			bottom[k] = math.Inf(-1)
			nan[k] = math.NaN()
		}
		ix := Build(d, []geom.Point{bottom})
		for _, q := range []geom.Point{bottom.Clone(), nan, make(geom.Point, d)} {
			if ix.Classify(q) != geom.Positive {
				t.Errorf("d=%d: bottom anchor failed to classify %v positive", d, q)
			}
		}
	}
}

// TestEmptyIndex: no anchors is the constant-negative classifier.
func TestEmptyIndex(t *testing.T) {
	ix := Build(3, nil)
	if ix.Classify(geom.Point{1, 2, 3}) != geom.Negative {
		t.Error("empty index classified positive")
	}
	dst := make([]geom.Label, 2)
	dst[0], dst[1] = geom.Positive, geom.Positive
	ix.ClassifyBatchInto(dst, []geom.Point{{0, 0, 0}, {1, 1, 1}})
	if dst[0] != geom.Negative || dst[1] != geom.Negative {
		t.Error("empty index batch left positives in dst")
	}
}

// TestBuildDeterministic: the same anchors always produce a bitwise
// identical index — the property snapshot replication and cross-check
// harnesses rely on.
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(5)
		anchors := randomAntichain(rng, 10+rng.Intn(120), d)
		a := Build(d, anchors)
		b := Build(d, anchors)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d (d=%d, m=%d): Build is not deterministic", trial, d, len(anchors))
		}
	}
}

// TestBatchEveryPermutation: for every permutation of a small batch,
// batch output stays positionally aligned with the scalar result of
// the same slot.
func TestBatchEveryPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{2, 3, 4} {
		anchors := randomAntichain(rng, 60, d)
		ix := Build(d, anchors)
		base := make([]geom.Point, 6)
		for i := range base {
			base[i] = randomQuery(rng, d)
		}
		want := make([]geom.Label, len(base))
		for i, q := range base {
			want[i] = scalarClassify(anchors, q)
		}
		perm := make([]int, len(base))
		for i := range perm {
			perm[i] = i
		}
		var rec func(k int)
		pts := make([]geom.Point, len(base))
		dst := make([]geom.Label, len(base))
		rec = func(k int) {
			if k == len(perm) {
				for i, src := range perm {
					pts[i] = base[src]
				}
				ix.ClassifyBatchInto(dst, pts)
				for i, src := range perm {
					if dst[i] != want[src] {
						t.Fatalf("d=%d perm %v: slot %d = %v, want %v", d, perm, i, dst[i], want[src])
					}
				}
				return
			}
			for i := k; i < len(perm); i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
	}
}

// TestBatchZeroAllocs: steady-state batch classification must not
// allocate, for every layout that serving traffic can reach.
func TestBatchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name string
		d, n int
	}{
		{"1d", 1, 4}, {"2d-staircase", 2, 64}, {"tiny-3d", 3, 8}, {"bits-3d", 3, 200}, {"bits-5d", 5, 200},
	} {
		anchors := randomAntichain(rng, tc.n, tc.d)
		ix := Build(tc.d, anchors)
		pts := make([]geom.Point, 32)
		for i := range pts {
			pts[i] = randomQuery(rng, tc.d)
		}
		dst := make([]geom.Label, len(pts))
		ix.ClassifyBatchInto(dst, pts) // warm the scratch pool
		allocs := testing.AllocsPerRun(50, func() {
			ix.ClassifyBatchInto(dst, pts)
		})
		if allocs != 0 {
			t.Errorf("%s: ClassifyBatchInto allocates %.1f times per batch, want 0", tc.name, allocs)
		}
	}
}

// TestBatchPanics: misaligned dst and wrong-dimension points must
// panic exactly like the scalar path.
func TestBatchPanics(t *testing.T) {
	ix := Build(2, []geom.Point{{0, 0}})
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("length mismatch", func() {
		ix.ClassifyBatchInto(make([]geom.Label, 1), []geom.Point{{1, 1}, {2, 2}})
	})
	mustPanic("dimension mismatch", func() {
		ix.ClassifyBatchInto(make([]geom.Label, 1), []geom.Point{{1, 2, 3}})
	})
	mustPanic("classify dimension mismatch", func() { ix.Classify(geom.Point{1}) })
}
