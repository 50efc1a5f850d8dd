package chains

import (
	"math/rand"
	"testing"

	"monoclass/internal/dataset"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/matching"
)

// plantedWidth builds a point set of exact width w: w parallel chains
// of length chainLen, separated so that points on different chains are
// never comparable (each chain gets a private high coordinate slot
// pattern), shuffled.
func plantedWidth(rng *rand.Rand, w, chainLen, d int) ([]geom.Point, int) {
	var pts []geom.Point
	for c := 0; c < w; c++ {
		for s := 0; s < chainLen; s++ {
			p := make(geom.Point, d)
			// Incomparable across chains: coordinate 0 rises with the
			// chain id while coordinate 1 falls; remaining coords rise
			// along the chain.
			p[0] = float64(c*1000 + s)
			p[1] = float64((w-c)*1000 + s)
			for k := 2; k < d; k++ {
				p[k] = float64(s)
			}
			pts = append(pts, p)
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts, w
}

// TestWarmWidthMatchesCold: the warm-started decomposition must land
// on exactly the width of a cold Hopcroft–Karp run — the scalar
// oracle's, whose slice matcher shares no code with the bitset one —
// with a valid chain cover and antichain certificate, over random
// instances of several shapes.
func TestWarmWidthMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(80)
		d := 3 + rng.Intn(3)
		pts := randPoints(rng, n, d, 12)
		m := domgraph.Build(pts)
		cold := DecomposeGenericScalar(pts)
		warm, st := DecomposeMatrixStats(pts, m)
		if warm.Width != cold.Width {
			t.Fatalf("trial %d: warm width %d, scalar width %d", trial, warm.Width, cold.Width)
		}
		if st.Width != warm.Width {
			t.Fatalf("trial %d: stats width %d != decomposition width %d", trial, st.Width, warm.Width)
		}
		if err := ValidateDecomposition(pts, warm.Chains); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ValidateAntichain(pts, warm.Antichain); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(warm.Antichain) != warm.Width {
			t.Fatalf("trial %d: certificate size %d != width %d", trial, len(warm.Antichain), warm.Width)
		}
		if st.Augmentations != st.SeedChains-st.Width {
			t.Fatalf("trial %d: %d augmentations for seed %d -> width %d", trial, st.Augmentations, st.SeedChains, st.Width)
		}
	}
}

// TestSeededAnyCoverConverges: seeding from any valid chain cover —
// the scalar greedy cover, a permuted variant, and the adversarially
// wide all-singletons cover, whose empty seed matching runs the full
// cold phase schedule — must converge to the scalar oracle's width.
func TestSeededAnyCoverConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(70)
		d := 3 + rng.Intn(2)
		pts := randPoints(rng, n, d, 12)
		m := domgraph.Build(pts)
		cold := DecomposeGenericScalar(pts)

		greedy := GreedyDecompose(pts)
		permuted := make([][]int, len(greedy))
		copy(permuted, greedy)
		rng.Shuffle(len(permuted), func(i, j int) { permuted[i], permuted[j] = permuted[j], permuted[i] })
		singletons := make([][]int, n)
		for i := 0; i < n; i++ {
			singletons[i] = []int{i}
		}

		for name, cover := range map[string][][]int{
			"greedy": greedy, "permuted": permuted, "singletons": singletons,
		} {
			dec, st := DecomposeMatrixSeeded(pts, m, cover)
			if dec.Width != cold.Width {
				t.Fatalf("trial %d %s: width %d, scalar %d", trial, name, dec.Width, cold.Width)
			}
			if err := ValidateDecomposition(pts, dec.Chains); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if st.Augmentations > st.SeedChains-dec.Width {
				t.Fatalf("trial %d %s: %d augmentations exceed seed gap %d",
					trial, name, st.Augmentations, st.SeedChains-dec.Width)
			}
		}
	}
}

// TestAugmentationsBoundPlanted pins the width-bounded work claim on
// planted-width instances: augmentations == seedChains − w exactly,
// and the greedy-seeded gap stays far below n (the quantity the cold
// O(√n)-phase schedule is bounded by).
func TestAugmentationsBoundPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 4, 16} {
		pts, want := plantedWidth(rng, w, 24, 4)
		m := domgraph.Build(pts)
		dec, st := DecomposeMatrixStats(pts, m)
		if dec.Width != want {
			t.Fatalf("w=%d: width %d, planted %d", w, dec.Width, want)
		}
		if st.Augmentations != st.SeedChains-want {
			t.Fatalf("w=%d: %d augmentations, seed gap %d", w, st.Augmentations, st.SeedChains-want)
		}
		if !st.CertEarlyExit && st.Phases > st.Augmentations+1 {
			t.Fatalf("w=%d: %d phases exceed augmentations+1 = %d", w, st.Phases, st.Augmentations+1)
		}
	}
}

// TestMatcherExaminesEachRightOncePerPhase guards the masked
// augmenting DFS on a planted noisy d=3 set whose greedy seed the
// certificate cannot prove optimal, so Hopcroft–Karp does real work.
// Cold and warm-started from the greedy seed, the DFS tests each right
// vertex at most once per phase. A DFS that walks every set bit of its
// rows tests 40–60× that bound at this size.
func TestMatcherExaminesEachRightOncePerPhase(t *testing.T) {
	const n = 2048
	lps := dataset.Planted(rand.New(rand.NewSource(1)), dataset.PlantedParams{N: n, D: 3, Noise: 0.1})
	pts := make([]geom.Point, n)
	for i, lp := range lps {
		pts[i] = lp.P
	}
	m := domgraph.Build(pts)
	if _, st := DecomposeMatrixStats(pts, m); st.CertEarlyExit || st.Augmentations == 0 {
		t.Fatalf("want a certificate miss that needs augmentations, got %+v", st)
	}
	rows, off := m.DAGRows()
	b := matching.BitsetFromRows(n, n, rows, off)
	for name, seed := range map[string][]int{"cold": nil, "warm": greedySeedBitset(m)} {
		_, st := matching.MaxMatchingBitsetWarm(b, seed)
		if st.Augmentations == 0 {
			t.Fatalf("%s: no augmentations (%+v)", name, st)
		}
		if bound := st.Phases * b.NumRight(); st.Examined > bound {
			t.Errorf("%s: DFS examined %d right vertices in %d phases, bound %d", name, st.Examined, st.Phases, bound)
		}
	}
}

// TestCertEarlyExitOnAntichain: a pure antichain decomposes into n
// singleton chains whose bottoms are the whole set — the certificate
// must fire and skip Hopcroft–Karp outright (zero phases).
func TestCertEarlyExitOnAntichain(t *testing.T) {
	n := 48
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{float64(i), float64(n - i), float64((i * 7) % n)}
	}
	m := domgraph.Build(pts)
	dec, st := DecomposeMatrixStats(pts, m)
	if dec.Width != n {
		t.Fatalf("antichain width %d, want %d", dec.Width, n)
	}
	if !st.CertEarlyExit {
		t.Fatalf("certificate did not fire on a pure antichain (stats %+v)", st)
	}
	if st.Phases != 0 || st.Augmentations != 0 {
		t.Fatalf("early exit still ran matching: %+v", st)
	}
	if err := ValidateAntichain(pts, dec.Antichain); err != nil {
		t.Fatal(err)
	}
}

// TestCertEarlyExitOnChain: a single total chain has one chain bottom,
// trivially an antichain of size 1 == chain count — certificate fires.
func TestCertEarlyExitOnChain(t *testing.T) {
	n := 40
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{float64(i), float64(i), float64(i)}
	}
	m := domgraph.Build(pts)
	dec, st := DecomposeMatrixStats(pts, m)
	if dec.Width != 1 || !st.CertEarlyExit {
		t.Fatalf("total chain: width %d, stats %+v", dec.Width, st)
	}
	if err := ValidateDecomposition(pts, dec.Chains); err != nil {
		t.Fatal(err)
	}
}

// TestWarmMatchesScalarOracle cross-checks the full warm pipeline
// against the scalar pre-kernel construction on mixed instances with
// duplicates (index-tiebreak DAG edges) and shared coordinates.
func TestWarmMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		pts := randPoints(rng, n, 3, 12)
		// Inject duplicates to exercise the i>j tiebreak edges.
		for k := 0; k < n/5; k++ {
			pts[rng.Intn(n)] = append(geom.Point(nil), pts[rng.Intn(n)]...)
		}
		m := domgraph.Build(pts)
		warm, _ := DecomposeMatrixStats(pts, m)
		scalar := DecomposeGenericScalar(pts)
		if warm.Width != scalar.Width {
			t.Fatalf("trial %d: warm width %d, scalar width %d", trial, warm.Width, scalar.Width)
		}
		if err := ValidateDecomposition(pts, warm.Chains); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSeededRejectsNonPartition: malformed covers must panic.
func TestSeededRejectsNonPartition(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(1)), 6, 3, 12)
	m := domgraph.Build(pts)
	for name, cover := range map[string][][]int{
		"dup":          {{0, 1}, {1, 2}, {3}, {4}, {5}},
		"out-of-range": {{0}, {1}, {2}, {3}, {4}, {6}},
		"missing":      {{0}, {1}, {2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			DecomposeMatrixSeeded(pts, m, cover)
		}()
	}
}
