package passive

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

func randomWeightedSet(rng *rand.Rand, n, d, gridSide int) geom.WeightedSet {
	ws := make(geom.WeightedSet, n)
	for i := range ws {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = float64(rng.Intn(gridSide))
		}
		ws[i] = geom.WeightedPoint{
			P:      p,
			Label:  geom.Label(rng.Intn(2)),
			Weight: 1 + rng.Float64()*4,
		}
	}
	return ws
}

// TestKernelSolveMatchesDense: for d >= 3 inputs (where the kernel
// path engages) the objective value must equal the dense literal
// Section 5.1 construction, including on duplicate-heavy grids.
func TestKernelSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		d := 3 + rng.Intn(3)
		n := 1 + rng.Intn(80)
		ws := randomWeightedSet(rng, n, d, 2+rng.Intn(3))
		fast, err := Solve(ws, Options{})
		if err != nil {
			t.Fatalf("trial %d: kernel solve: %v", trial, err)
		}
		dense, err := Solve(ws, Options{Dense: true})
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		if math.Abs(fast.WErr-dense.WErr) > 1e-9 {
			t.Fatalf("trial %d (n=%d d=%d): kernel WErr %g != dense %g", trial, n, d, fast.WErr, dense.WErr)
		}
		if fast.Stats.Contending != dense.Stats.Contending {
			t.Fatalf("trial %d: kernel contending %d != dense %d", trial, fast.Stats.Contending, dense.Stats.Contending)
		}
		// The kernel assignment must itself achieve its objective.
		var got float64
		for i, wp := range ws {
			if fast.Assignment[i] != wp.Label {
				got += wp.Weight
			}
		}
		if math.Abs(got-fast.WErr) > 1e-9 {
			t.Fatalf("trial %d: assignment weight %g != WErr %g", trial, got, fast.WErr)
		}
	}
}

// TestSparseEdgesMatrixMatchesScalar: the kernel ∞-edge builder must
// emit exactly the same edge set as the scalar chain-index builder
// when both run over the same decomposition.
func TestSparseEdgesMatrixMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		d := 1 + rng.Intn(5)
		n := 1 + rng.Intn(90)
		ws := randomWeightedSet(rng, n, d, 2+rng.Intn(3))
		pts := make([]geom.Point, n)
		labels := make([]geom.Label, n)
		for i := range ws {
			pts[i] = ws[i].P
			labels[i] = ws[i].Label
		}
		m := domgraph.Build(pts)
		dec := chains.DecomposeMatrix(pts, m)

		ci := buildChainIndex(ws, dec.Chains)
		contending := contendingPoints(ws, &ci)

		scalar := sparseInfinityEdges(ws, &ci, contending)
		kernel := sparseInfinityEdgesMatrix(m, dec, contending)

		sortEdges := func(e []sparseEdge) {
			sort.Slice(e, func(a, b int) bool {
				if e[a].from != e[b].from {
					return e[a].from < e[b].from
				}
				return e[a].to < e[b].to
			})
		}
		sortEdges(scalar)
		sortEdges(kernel)
		if len(scalar) != len(kernel) {
			t.Fatalf("trial %d (n=%d d=%d): %d scalar edges != %d kernel edges", trial, n, d, len(scalar), len(kernel))
		}
		for k := range scalar {
			if scalar[k] != kernel[k] {
				t.Fatalf("trial %d: edge %d: scalar %v != kernel %v", trial, k, scalar[k], kernel[k])
			}
		}
		// The kernel contending scan must agree with the chain-index
		// scan, over the minimum cover and over a greedy (possibly
		// wider) one alike.
		kc := m.ViolationParties(labels)
		greedy := buildChainIndex(ws, chains.GreedyDecompose(pts))
		for cover, got := range map[string][]bool{"minimum": contending, "greedy": contendingPoints(ws, &greedy)} {
			for i := range got {
				if kc[i] != got[i] {
					t.Fatalf("trial %d: %s cover: contending[%d] kernel=%v scalar=%v", trial, cover, i, kc[i], got[i])
				}
			}
		}
	}
}
