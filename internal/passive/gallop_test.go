package passive

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/dataset"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

// probingEdges is the ∞-edge builder's cross-link walk before it
// galloped, kept as the oracle for its output: every label-0 point
// probes every label-1 half with one advancing pointer per half, so it
// spends at least m₀·k₁ lookups over m₀ contending label-0 points and
// k₁ label-1 halves. Chain links come first, as in infinityEdges.
func probingEdges(view domgraph.View, ws geom.WeightedSet, cover [][]int, contending []bool) []edge {
	var out []edge
	var halves [2][][]int
	for _, chain := range cover {
		for _, label := range [...]geom.Label{geom.Negative, geom.Positive} {
			var half []int
			for _, idx := range chain {
				if contending[idx] && ws[idx].Label == label {
					half = append(half, idx)
				}
			}
			for k := 1; k < len(half); k++ {
				out = append(out, edge{half[k], half[k-1]})
			}
			if len(half) > 0 {
				halves[label] = append(halves[label], half)
			}
		}
	}
	ones := halves[geom.Positive]
	prefix := make([]int, len(ones))
	for _, half := range halves[geom.Negative] {
		clear(prefix)
		for _, i := range half {
			for c, other := range ones {
				p := prefix[c]
				for p < len(other) && view.Dominates(i, other[p]) {
					p++
				}
				if p > prefix[c] {
					out = append(out, edge{i, other[p-1]})
					prefix[c] = p
				}
			}
		}
	}
	return out
}

// randomInfWeightedSet is randomWeightedSet with about one coordinate
// in eight replaced by +Inf or −Inf.
func randomInfWeightedSet(rng *rand.Rand, n, d, gridSide int) geom.WeightedSet {
	ws := randomWeightedSet(rng, n, d, gridSide)
	for i := range ws {
		for k := range ws[i].P {
			switch rng.Intn(16) {
			case 0:
				ws[i].P[k] = math.Inf(1)
			case 1:
				ws[i].P[k] = math.Inf(-1)
			}
		}
	}
	return ws
}

// sortedEdges returns a sorted copy of es, for comparing edge lists
// whose order is not part of the builder's contract.
func sortedEdges(es []edge) []edge {
	out := slices.Clone(es)
	slices.SortFunc(out, func(a, b edge) int {
		if a.from != b.from {
			return a.from - b.from
		}
		return a.to - b.to
	})
	return out
}

// TestGallopMatchesProbingWalk: on random sets (d=1–4, duplicates,
// ±Inf) and two covers each, the minimum one and the first-fit greedy
// one, the galloping builder emits exactly the probing walk's edges,
// in its own order.
func TestGallopMatchesProbingWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3000; trial++ {
		d := 1 + trial%4
		ws := randomInfWeightedSet(rng, 1+rng.Intn(60), d, 2+rng.Intn(5))
		pts := pointsOf(ws)
		view := domgraph.Build(pts)
		for _, cover := range [][][]int{chains.Decompose(pts).Chains, chains.GreedyDecompose(pts)} {
			contending := contendingPoints(ws, cover)
			got := edgesOf(view, ws, cover, contending)
			if want := probingEdges(view, ws, cover, contending); !slices.Equal(sortedEdges(got), sortedEdges(want)) {
				t.Fatalf("trial %d (n=%d d=%d): galloping walk emitted %v, probing walk %v", trial, len(ws), d, got, want)
			}
		}
	}
}

// TestGallopLookupsPlanted guards the galloping walk where it pays: on
// a planted noisy d=3 set of 8192 points it asks at most ½·m₀·k₁
// dominance lookups (0.34–0.35 when it was written), where the probing
// walk needs at least m₀·k₁ — every contending label-0 point probes
// every label-1 half. The two emit the same edges.
func TestGallopLookupsPlanted(t *testing.T) {
	const n = 8192
	lps := dataset.Planted(rand.New(rand.NewSource(1)), dataset.PlantedParams{N: n, D: 3, Noise: 0.1})
	ws := make(geom.WeightedSet, n)
	for i, lp := range lps {
		ws[i] = geom.WeightedPoint{P: lp.P, Label: lp.Label, Weight: 1}
	}
	pts := pointsOf(ws)
	matrix := domgraph.Build(pts)
	dec, _ := chains.DecomposeMatrixStats(pts, matrix)
	cover := dec.Chains
	contending := contendingPoints(ws, cover)

	m0, k1 := 0, 0
	for _, chain := range cover {
		one := false
		for _, idx := range chain {
			if contending[idx] && ws[idx].Label == geom.Negative {
				m0++
			}
			one = one || contending[idx] && ws[idx].Label == geom.Positive
		}
		if one {
			k1++
		}
	}
	view := &countingView{View: matrix}
	got := edgesOf(view, ws, cover, contending)
	gallopLookups := view.lookups
	view.lookups = 0
	if want := probingEdges(view, ws, cover, contending); !slices.Equal(sortedEdges(got), sortedEdges(want)) {
		t.Fatal("galloping walk's edges differ from the probing walk's")
	}
	ratio := float64(gallopLookups) / float64(m0*k1)
	t.Logf("m₀=%d k₁=%d: galloping %d lookups (%.2f·m₀·k₁), probing %d", m0, k1, gallopLookups, ratio, view.lookups)
	if ratio > 0.5 {
		t.Fatalf("%d lookups = %.2f·m₀·k₁, want ≤ 0.5", gallopLookups, ratio)
	}
}
