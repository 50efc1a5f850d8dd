package chains

import (
	"math/rand"
	"reflect"
	"testing"

	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

func randPoints(rng *rand.Rand, n, d, gridSize int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = float64(rng.Intn(gridSize))
		}
		pts[i] = p
	}
	return pts
}

// bruteWidth computes the maximum antichain size by exhaustive subset
// search (n <= ~18).
func bruteWidth(pts []geom.Point) int {
	n := len(pts)
	best := 0
	for mask := 1; mask < 1<<n; mask++ {
		var members []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				members = append(members, i)
			}
		}
		ok := true
		for a := 0; a < len(members) && ok; a++ {
			for b := a + 1; b < len(members); b++ {
				pi, pj := pts[members[a]], pts[members[b]]
				if pi.Equal(pj) || geom.Comparable(pi, pj) {
					ok = false
					break
				}
			}
		}
		if ok && len(members) > best {
			best = len(members)
		}
	}
	return best
}

func checkDecomposition(t *testing.T, pts []geom.Point, dec Decomposition) {
	t.Helper()
	if err := ValidateDecomposition(pts, dec.Chains); err != nil {
		t.Fatal(err)
	}
	if err := ValidateAntichain(pts, dec.Antichain); err != nil {
		t.Fatal(err)
	}
	if dec.Width != len(dec.Chains) || dec.Width != len(dec.Antichain) {
		t.Fatalf("Width %d, chains %d, antichain %d must agree",
			dec.Width, len(dec.Chains), len(dec.Antichain))
	}
}

func TestDecomposeEmptyAndSingle(t *testing.T) {
	dec := Decompose(nil)
	if dec.Width != 0 || len(dec.Chains) != 0 {
		t.Error("empty set should have width 0")
	}
	dec = Decompose([]geom.Point{{1, 2}})
	checkDecomposition(t, []geom.Point{{1, 2}}, dec)
	if dec.Width != 1 {
		t.Errorf("single point width %d, want 1", dec.Width)
	}
}

func TestDecomposeTotalOrder(t *testing.T) {
	// A 1-D set is totally ordered: one chain.
	pts := []geom.Point{{3}, {1}, {4}, {1.5}, {9}}
	dec := Decompose(pts)
	checkDecomposition(t, pts, dec)
	if dec.Width != 1 {
		t.Errorf("width %d, want 1", dec.Width)
	}
}

func TestDecomposePureAntichain(t *testing.T) {
	// Points on an anti-diagonal: pairwise incomparable.
	pts := []geom.Point{{0, 4}, {1, 3}, {2, 2}, {3, 1}, {4, 0}}
	dec := Decompose(pts)
	checkDecomposition(t, pts, dec)
	if dec.Width != 5 {
		t.Errorf("width %d, want 5", dec.Width)
	}
}

func TestDecomposeDuplicatePoints(t *testing.T) {
	// Duplicates are mutually comparable and must chain up.
	pts := []geom.Point{{1, 1}, {1, 1}, {1, 1}, {0, 2}}
	dec := Decompose(pts)
	checkDecomposition(t, pts, dec)
	if dec.Width != 2 {
		t.Errorf("width %d, want 2", dec.Width)
	}
}

func TestDecomposeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(10)
		d := 1 + rng.Intn(3)
		pts := randPoints(rng, n, d, 4)
		dec := Decompose(pts)
		checkDecomposition(t, pts, dec)
		if want := bruteWidth(pts); dec.Width != want {
			t.Fatalf("trial %d: width %d, want %d (pts %v)", trial, dec.Width, want, pts)
		}
	}
}

func TestWidthDispatch(t *testing.T) {
	if Width(nil) != 0 {
		t.Error("empty width should be 0")
	}
	pts2 := []geom.Point{{0, 1}, {1, 0}}
	if Width(pts2) != 2 {
		t.Error("2-D dispatch wrong")
	}
	pts3 := []geom.Point{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}}
	if Width(pts3) != 3 {
		t.Error("3-D dispatch wrong")
	}
}

func TestGreedyDecomposeValidButPossiblyWider(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sawWider := false
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(30)
		d := 2 + rng.Intn(2)
		pts := randPoints(rng, n, d, 6)
		chains := GreedyDecompose(pts)
		if err := ValidateDecomposition(pts, chains); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		w := Decompose(pts).Width
		if len(chains) < w {
			t.Fatalf("trial %d: greedy produced %d chains below width %d", trial, len(chains), w)
		}
		if len(chains) > w {
			sawWider = true
		}
	}
	if !sawWider {
		t.Log("greedy matched the optimum on every trial (unusual but not wrong)")
	}
	if GreedyDecompose(nil) != nil {
		t.Error("empty greedy should be nil")
	}
}

func TestValidateDecompositionCatchesErrors(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}, {5, 0}}
	cases := [][][]int{
		{{0, 1}},            // misses point 2
		{{0, 1}, {1}, {2}},  // duplicates point 1
		{{1, 0}, {2}},       // not ascending (1 dominates 0, listed descending)
		{{0, 2, 1}},         // 1 does not dominate 2
		{{0}, {}, {1}, {2}}, // empty chain
		{{0, 7}, {1}, {2}},  // out of range
	}
	for i, c := range cases {
		if err := ValidateDecomposition(pts, c); err == nil {
			t.Errorf("case %d: invalid decomposition accepted", i)
		}
	}
	if err := ValidateDecomposition(pts, [][]int{{0, 1}, {2}}); err != nil {
		t.Errorf("valid decomposition rejected: %v", err)
	}
}

func TestValidateAntichainCatchesComparable(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}, {5, 0}}
	if err := ValidateAntichain(pts, []int{0, 1}); err == nil {
		t.Error("comparable pair accepted")
	}
	if err := ValidateAntichain(pts, []int{1, 2}); err != nil {
		t.Errorf("valid antichain rejected: %v", err)
	}
	for _, bad := range [][]int{{3}, {1, -1}} {
		if err := ValidateAntichain(pts, bad); err == nil {
			t.Errorf("out-of-range antichain %v accepted", bad)
		}
	}
}

// Dilworth sanity at scale: decomposing a set built as k interleaved
// chains of length m has width exactly k when the chains are offset to
// be pairwise incomparable.
func TestDecomposePlantedChains(t *testing.T) {
	const k, m = 7, 20
	var pts []geom.Point
	for c := 0; c < k; c++ {
		for i := 0; i < m; i++ {
			// Chain c ascends in both coordinates; distinct chains are
			// separated so that cross-chain points stay incomparable.
			pts = append(pts, geom.Point{
				float64(c*1000 + i),
				float64((k-1-c)*1000 + i),
			})
		}
	}
	dec := Decompose(pts)
	checkDecomposition(t, pts, dec)
	if dec.Width != k {
		t.Errorf("width %d, want %d", dec.Width, k)
	}
	for _, chain := range dec.Chains {
		if len(chain) != m {
			t.Errorf("chain length %d, want %d", len(chain), m)
		}
	}
}

// TestRaisedExactLimitGuard: the raised DefaultExactDecomposeLimit must
// still respect the dense-footprint guard — a limit raised past the
// guard takes the greedy fallback, not a matrix over 2 GiB.
func TestRaisedExactLimitGuard(t *testing.T) {
	if DefaultExactDecomposeLimit < 65536 {
		t.Fatalf("DefaultExactDecomposeLimit = %d, want >= 65536", DefaultExactDecomposeLimit)
	}
	if n := DefaultExactDecomposeLimit; domgraph.Footprint(n) > maxDenseBytes {
		t.Fatalf("n = %d at the default limit does not take the dense route: %d bytes", n, domgraph.Footprint(n))
	}
	if n := 1 << 20; domgraph.Footprint(n) <= maxDenseBytes {
		t.Fatalf("n = %d under a raised limit takes the dense route: %d bytes", n, domgraph.Footprint(n))
	}
}

// TestDecomposeRoutePaths: the route takes the fast paths at d ≤ 2
// whatever the limit, the dense matrix at d ≥ 3 within it, and the
// greedy fallback — a valid cover with no antichain and no matrix —
// past it. CoverRoute takes the same paths but stops the dense one at
// the seed cover: valid, no narrower than the minimum, the matching's
// own seed, and exact only when certified.
func TestDecomposeRoutePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, d := range []int{1, 2} {
		pts := randPoints(rng, 60, d, 6)
		r := DecomposeRoute(pts, -1)
		if r.Path != PathFast2D || !r.Exact() || r.Matrix != nil {
			t.Fatalf("d=%d: path %s, exact %v", d, r.Path, r.Exact())
		}
		checkDecomposition(t, pts, r.Decomposition)
		if c := CoverRoute(pts, -1); c.Path != PathFast2D || !reflect.DeepEqual(c.Decomposition, r.Decomposition) {
			t.Fatalf("d=%d: cover route took %s or another cover", d, c.Path)
		}
	}
	pts := randPoints(rng, 60, 3, 6)
	exact := DecomposeRoute(pts, 0)
	if exact.Path != PathExactDense || !exact.Exact() || exact.Matrix == nil || exact.Stats.Width != exact.Width {
		t.Fatalf("d=3 within the limit: path %s, exact %v, stats %+v", exact.Path, exact.Exact(), exact.Stats)
	}
	checkDecomposition(t, pts, exact.Decomposition)
	seed := CoverRoute(pts, 0)
	if seed.Path != PathSeedDense || seed.Exact() || seed.Antichain != nil || seed.Matrix == nil {
		t.Fatalf("d=3 cover route: path %s, exact %v, antichain %v", seed.Path, seed.Exact(), seed.Antichain)
	}
	if err := ValidateDecomposition(pts, seed.Chains); err != nil {
		t.Fatal(err)
	}
	if st := seed.Stats; seed.Width != len(seed.Chains) || seed.Width <= exact.Width || st.Width != seed.Width ||
		st.SeedChains != exact.Stats.SeedChains || st.SeedChains != seed.Width || st.Augmentations != 0 || st.Phases != 0 {
		t.Fatalf("seed cover of %d chains (width %d), stats %+v, matching's %+v", len(seed.Chains), seed.Width, st, exact.Stats)
	}
	chain := make([]geom.Point, 40)
	for i := range chain {
		chain[i] = geom.Point{float64(i), float64(i), float64(i)}
	}
	if c := CoverRoute(chain, 0); c.Path != PathSeedDense || !c.Exact() || !c.Stats.CertEarlyExit || !reflect.DeepEqual(c.Decomposition, Decompose(chain)) {
		t.Fatalf("certified seed cover: path %s, exact %v, %+v", c.Path, c.Exact(), c.Decomposition)
	}
	greedy := DecomposeRoute(pts, len(pts)-1)
	if greedy.Path != PathGreedyFallback || greedy.Exact() || greedy.Matrix != nil || greedy.Antichain != nil {
		t.Fatalf("d=3 past the limit: path %s, exact %v, antichain %v", greedy.Path, greedy.Exact(), greedy.Antichain)
	}
	if err := ValidateDecomposition(pts, greedy.Chains); err != nil {
		t.Fatal(err)
	}
	if greedy.Width != len(greedy.Chains) || greedy.Width < exact.Width {
		t.Fatalf("greedy width %d over %d chains, exact width %d", greedy.Width, len(greedy.Chains), exact.Width)
	}
}
