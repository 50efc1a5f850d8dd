package matching

import (
	"math/rand"
	"testing"
)

// randomBitsetGraph builds a random packed bipartite graph with edge
// probability p.
func randomBitsetGraph(rng *rand.Rand, nLeft, nRight int, p float64) *BitsetBipartite {
	b := newBitsetGraph(nLeft, nRight)
	for u := 0; u < nLeft; u++ {
		for v := 0; v < nRight; v++ {
			if rng.Float64() < p {
				b.setEdge(u, v)
			}
		}
	}
	return b
}

// greedySeed builds a maximal-ish matching by first-fit, as a stand-in
// for the chain-cover seeds the decomposition layer supplies.
func greedySeed(b *BitsetBipartite) []int {
	seed := make([]int, b.NumLeft())
	used := make([]bool, b.NumRight())
	for u := range seed {
		seed[u] = -1
		for v := 0; v < b.NumRight(); v++ {
			if !used[v] && b.HasEdge(u, v) {
				seed[u] = v
				used[v] = true
				break
			}
		}
	}
	return seed
}

// TestWarmMatchesColdSize: warm-started Hopcroft–Karp must reach
// exactly the cold maximum-matching size from any valid seed, the
// augmentation count must equal the size gap, and the masked DFS must
// test each right vertex at most once per phase.
func TestWarmMatchesColdSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nL, nR := 1+rng.Intn(60), 1+rng.Intn(60)
		b := randomBitsetGraph(rng, nL, nR, []float64{0.02, 0.1, 0.4}[trial%3])
		cold := coldMatching(b)
		seed := greedySeed(b)
		warm, st := MaxMatchingBitsetWarm(b, seed)
		if warm.Size != cold.Size {
			t.Fatalf("trial %d: warm size %d, cold size %d", trial, warm.Size, cold.Size)
		}
		if st.Augmentations != warm.Size-st.SeedSize {
			t.Fatalf("trial %d: %d augmentations for size gap %d", trial, st.Augmentations, warm.Size-st.SeedSize)
		}
		if st.Phases > st.Augmentations+1 {
			t.Fatalf("trial %d: %d phases exceed augmentations+1 = %d", trial, st.Phases, st.Augmentations+1)
		}
		if st.Examined > st.Phases*nR {
			t.Fatalf("trial %d: DFS examined %d right vertices in %d phases of %d", trial, st.Examined, st.Phases, nR)
		}
		// The warm result must be a consistent matching over real edges.
		for u, v := range warm.MatchLeft {
			if v == -1 {
				continue
			}
			if !b.HasEdge(u, v) {
				t.Fatalf("trial %d: matched non-edge (%d,%d)", trial, u, v)
			}
			if warm.MatchRight[v] != u {
				t.Fatalf("trial %d: asymmetric match at (%d,%d)", trial, u, v)
			}
		}
	}
}

// TestWarmPerfectSeedOnePhase: seeding with an already-maximum
// matching must terminate after the single certifying BFS with zero
// augmentations.
func TestWarmPerfectSeedOnePhase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := randomBitsetGraph(rng, 50, 50, 0.2)
	cold := coldMatching(b)
	warm, st := MaxMatchingBitsetWarm(b, cold.MatchLeft)
	if warm.Size != cold.Size {
		t.Fatalf("warm size %d != cold size %d", warm.Size, cold.Size)
	}
	if st.Augmentations != 0 || st.Phases != 1 {
		t.Fatalf("perfect seed ran %d phases, %d augmentations; want 1, 0", st.Phases, st.Augmentations)
	}
	if st.SeedSize != cold.Size {
		t.Fatalf("seed size %d != cold size %d", st.SeedSize, cold.Size)
	}
}

// TestWarmNilSeedIsCold: a nil seed must reproduce the cold result
// bit for bit.
func TestWarmNilSeedIsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := randomBitsetGraph(rng, 40, 35, 0.15)
	cold := coldMatching(b)
	warm, st := MaxMatchingBitsetWarm(b, nil)
	if warm.Size != cold.Size || st.SeedSize != 0 {
		t.Fatalf("nil seed diverged: size %d vs %d, seed %d", warm.Size, cold.Size, st.SeedSize)
	}
	for u := range cold.MatchLeft {
		if cold.MatchLeft[u] != warm.MatchLeft[u] {
			t.Fatalf("nil seed changed MatchLeft[%d]: %d vs %d", u, warm.MatchLeft[u], cold.MatchLeft[u])
		}
	}
}

// TestWarmSeedValidation: invalid seeds must panic loudly rather than
// silently corrupt the matching invariants.
func TestWarmSeedValidation(t *testing.T) {
	b := newBitsetGraph(3, 3)
	b.setEdge(0, 1)
	b.setEdge(2, 1)
	cases := map[string][]int{
		"wrong length":     {1, -1},
		"out of range":     {3, -1, -1},
		"non-edge":         {0, -1, -1},
		"right used twice": {1, -1, 1},
	}
	for name, seed := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			MaxMatchingBitsetWarm(b, seed)
		}()
	}
}
