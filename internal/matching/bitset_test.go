package matching

import (
	"math/rand"
	"testing"
)

// randomPair builds the same random graph in both representations.
func randomPair(rng *rand.Rand, nLeft, nRight int, p float64) (*Bipartite, *BitsetBipartite) {
	b := NewBipartite(nLeft, nRight)
	bb := newBitsetGraph(nLeft, nRight)
	for u := 0; u < nLeft; u++ {
		for v := 0; v < nRight; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
				bb.setEdge(u, v)
			}
		}
	}
	return b, bb
}

func checkMatchingConsistent(t *testing.T, bb *BitsetBipartite, m Matching) {
	t.Helper()
	size := 0
	for u, v := range m.MatchLeft {
		if v == unmatched {
			continue
		}
		size++
		if !bb.HasEdge(u, v) {
			t.Fatalf("matched pair (%d,%d) is not an edge", u, v)
		}
		if m.MatchRight[v] != u {
			t.Fatalf("MatchRight[%d]=%d, want %d", v, m.MatchRight[v], u)
		}
	}
	if size != m.Size {
		t.Fatalf("Size=%d but %d left vertices matched", m.Size, size)
	}
}

// TestMaxMatchingBitsetMatchesSlice: same maximum matching size as the
// adjacency-list solver on random graphs across densities, and the
// returned matching is itself consistent.
func TestMaxMatchingBitsetMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		nLeft := rng.Intn(90)
		nRight := rng.Intn(90)
		p := []float64{0.02, 0.1, 0.5, 0.9}[rng.Intn(4)]
		b, bb := randomPair(rng, nLeft, nRight, p)
		want := MaxMatching(b)
		got := coldMatching(bb)
		if got.Size != want.Size {
			t.Fatalf("trial %d (%dx%d p=%g): bitset size %d != slice size %d",
				trial, nLeft, nRight, p, got.Size, want.Size)
		}
		checkMatchingConsistent(t, bb, got)
	}
}

// TestMinVertexCoverBitset: König — cover size equals matching size
// and every edge is covered.
func TestMinVertexCoverBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		nLeft := rng.Intn(70)
		nRight := rng.Intn(70)
		p := []float64{0.05, 0.3, 0.8}[rng.Intn(3)]
		_, bb := randomPair(rng, nLeft, nRight, p)
		m := coldMatching(bb)
		coverL, coverR := MinVertexCoverBitset(bb, m)
		size := 0
		for _, c := range coverL {
			if c {
				size++
			}
		}
		for _, c := range coverR {
			if c {
				size++
			}
		}
		if size != m.Size {
			t.Fatalf("trial %d: cover size %d != matching size %d", trial, size, m.Size)
		}
		for u := 0; u < nLeft; u++ {
			for v := 0; v < nRight; v++ {
				if bb.HasEdge(u, v) && !coverL[u] && !coverR[v] {
					t.Fatalf("trial %d: edge (%d,%d) uncovered", trial, u, v)
				}
			}
		}
	}
}

// TestBitsetWordBoundaries exercises right-side sizes around the
// 64-bit word edges, where the tail masking lives.
func TestBitsetWordBoundaries(t *testing.T) {
	for _, nRight := range []int{1, 63, 64, 65, 127, 128, 129} {
		// Perfect matching on a permutation graph.
		bb := newBitsetGraph(nRight, nRight)
		for u := 0; u < nRight; u++ {
			bb.setEdge(u, (u+3)%nRight)
		}
		m := coldMatching(bb)
		if m.Size != nRight {
			t.Fatalf("nRight=%d: permutation matching size %d, want %d", nRight, m.Size, nRight)
		}
		checkMatchingConsistent(t, bb, m)
	}
}

func TestBitsetFromRowsAdoptsBacking(t *testing.T) {
	// 2x2 complete graph, rows packed by hand.
	rows := []uint64{0b11, 0b11}
	bb := BitsetFromRows(2, 2, rows, []int{0, 1, 2})
	if m := coldMatching(bb); m.Size != 2 {
		t.Fatalf("complete 2x2: size %d, want 2", m.Size)
	}
	// Ragged rows: left 0 has no words, so no edge, and left 1 keeps
	// both of its.
	ragged := BitsetFromRows(2, 2, rows[:1], []int{0, 0, 1})
	if ragged.HasEdge(0, 0) || !ragged.HasEdge(1, 0) || !ragged.HasEdge(1, 1) {
		t.Fatal("ragged rows misread")
	}
	if m := coldMatching(ragged); m.Size != 1 {
		t.Fatalf("ragged 2x2: size %d, want 1", m.Size)
	}
	for name, off := range map[string][]int{
		"too few offsets":   {0, 1},
		"offsets past rows": {0, 1, 2, 3},
		"row too long":      {0, 2, 2},
		"offsets backwards": {0, 2, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			BitsetFromRows(len(off)-1, 2, rows, off)
		}()
	}
}

func TestBitsetEmptyGraphs(t *testing.T) {
	if m := coldMatching(newBitsetGraph(0, 0)); m.Size != 0 {
		t.Fatal("empty graph must have empty matching")
	}
	if m := coldMatching(newBitsetGraph(5, 0)); m.Size != 0 {
		t.Fatal("no right vertices must give empty matching")
	}
	bb := newBitsetGraph(3, 4)
	m := coldMatching(bb) // edgeless
	if m.Size != 0 {
		t.Fatal("edgeless graph must give empty matching")
	}
	coverL, coverR := MinVertexCoverBitset(bb, m)
	for _, c := range append(coverL, coverR...) {
		if c {
			t.Fatal("edgeless graph must have empty cover")
		}
	}
}
