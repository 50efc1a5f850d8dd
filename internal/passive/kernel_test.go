package passive

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// TestKernelSolveMatchesDense: for d >= 3 inputs the network built
// over the bit-packed matrix must reach the optimum of the literal
// Section 5.1 construction, including on duplicate-heavy grids.
func TestKernelSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		d := 3 + rng.Intn(3)
		n := 1 + rng.Intn(80)
		ws := randomWeightedSet(rng, n, d, 2+rng.Intn(3))
		pts := pointsOf(ws)
		m := domgraph.Build(pts)
		dec, _ := chains.DecomposeMatrixStats(pts, m)
		fast, err := Prepare(ws, m, dec.Chains).Resolve(nil)
		if err != nil {
			t.Fatalf("trial %d: kernel solve: %v", trial, err)
		}
		dense, err := solveLiteral(ws)
		if err != nil {
			t.Fatalf("trial %d: literal solve: %v", trial, err)
		}
		if math.Abs(fast.WErr-dense.WErr) > 1e-9 {
			t.Fatalf("trial %d (n=%d d=%d): kernel WErr %g != literal %g", trial, n, d, fast.WErr, dense.WErr)
		}
		if fast.Stats.Contending != dense.Stats.Contending {
			t.Fatalf("trial %d: kernel contending %d != literal %d", trial, fast.Stats.Contending, dense.Stats.Contending)
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

type edge struct{ from, to int }

// edgesOf collects infinityEdges' output in emission order.
func edgesOf(view domgraph.View, ws geom.WeightedSet, cover [][]int, contending []bool) []edge {
	m := 0
	for _, c := range contending {
		if c {
			m++
		}
	}
	var out []edge
	infinityEdges(view, ws, cover, contending, m, func(from, to int) { out = append(out, edge{from, to}) })
	return out
}

// checkReachability holds the ∞ edges to their contract: every edge
// runs from a point to one it dominates, and the contending label-1
// points reachable from each contending label-0 point are exactly the
// ones it dominates.
func checkReachability(t *testing.T, tag string, ws geom.WeightedSet, contending []bool, edges []edge) {
	t.Helper()
	adj := make([][]int, len(ws))
	for _, e := range edges {
		if !contending[e.from] || !contending[e.to] {
			t.Fatalf("%s: edge %v touches a non-contending point", tag, e)
		}
		if !geom.Dominates(ws[e.from].P, ws[e.to].P) {
			t.Fatalf("%s: edge %v runs against dominance", tag, e)
		}
		adj[e.from] = append(adj[e.from], e.to)
	}
	for i := range ws {
		if !contending[i] || ws[i].Label != geom.Negative {
			continue
		}
		seen := make([]bool, len(ws))
		seen[i] = true
		stack := []int{i}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		for j := range ws {
			if !contending[j] || ws[j].Label != geom.Positive {
				continue
			}
			if want := geom.Dominates(ws[i].P, ws[j].P); seen[j] != want {
				t.Fatalf("%s: %d reaches %d = %v, dominates = %v", tag, i, j, seen[j], want)
			}
		}
	}
}

// TestSparseEdgesMatrixMatchesScalar is the property test of the one
// ∞-edge builder: over random sets of up to 130 points (duplicates,
// ±Inf, d = 1..4), so matrix rows span up to three words, minimum and
// greedy covers, and the matrix and implicit views (the latter answers
// dominance from ranks), the contending scan matches its definition,
// the edges keep their budget, ∞-reachability from each contending
// label-0 point equals dominance over the contending label-1 points,
// and both views emit the identical edge list.
func TestSparseEdgesMatrixMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 400; trial++ {
		d := 1 + rng.Intn(4)
		n := 1 + rng.Intn(130)
		ws := randomWeightedSet(rng, n, d, 2+rng.Intn(4))
		for i := range ws {
			if i > 0 && rng.Intn(5) == 0 {
				ws[i].P = ws[rng.Intn(i)].P.Clone()
			}
			if rng.Intn(12) == 0 {
				ws[i].P[rng.Intn(d)] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		checkBuilder(t, fmt.Sprintf("trial %d (n=%d d=%d)", trial, n, d), ws)
	}
}

// checkBuilder runs infinityEdges over ws with the minimum and the
// greedy cover in the matrix and implicit views, and holds it to its
// contract: the contending scan matches PrepareLiteral's definition,
// every edge is sound, reachability from label 0 to label 1 equals
// dominance, the edge budget holds, and both views emit the identical
// edge list.
func checkBuilder(t *testing.T, tag string, ws geom.WeightedSet) {
	t.Helper()
	pts := pointsOf(ws)
	literal, err := PrepareLiteral(ws)
	if err != nil {
		t.Fatalf("%s: PrepareLiteral: %v", tag, err)
	}
	want := literal.Contending()
	views := []struct {
		name string
		v    domgraph.View
	}{
		{"matrix", domgraph.Build(pts)},
		{"implicit", domgraph.NewImplicit(pts)},
	}
	covers := []struct {
		name  string
		cover [][]int
	}{
		{"minimum", chains.Decompose(pts).Chains},
		{"greedy", chains.GreedyDecompose(pts)},
	}
	for _, c := range covers {
		contending := contendingPoints(ws, c.cover)
		if !reflect.DeepEqual(contending, want) {
			t.Fatalf("%s: %s cover: contending %v, want %v", tag, c.name, contending, want)
		}
		ref := edgesOf(views[0].v, ws, c.cover, contending)
		checkReachability(t, tag+" "+c.name, ws, contending, ref)
		checkEdgeBound(t, ws, c.cover, contending, ref)
		for _, v := range views[1:] {
			if got := edgesOf(v.v, ws, c.cover, contending); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: %s cover: %s view emits %v, matrix view %v", tag, c.name, v.name, got, ref)
			}
		}
	}
}

// countingView counts dominance lookups.
type countingView struct {
	domgraph.View
	lookups int
}

func (v *countingView) Dominates(i, j int) bool {
	v.lookups++
	return v.View.Dominates(i, j)
}

// TestInfinityEdgesWideCover: a cover of thousands of chains of which
// only three keep contending members. The builder walks only those
// three, with one advancing pointer per (label-0 half, label-1 half)
// pair: at most k·m lookups, inside the 2·(k−1)·m + m bound asserted
// here, however wide the cover.
func TestInfinityEdgesWideCover(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var ws geom.WeightedSet
	// Three interleaved noisy chains: (t+0.3c, t−0.3c) for c = 0, 1, 2
	// are pairwise incomparable at equal t and comparable across t.
	for c := 0; c < 3; c++ {
		for x := 0; x < 200; x++ {
			label := geom.Label(0)
			if x >= 100 {
				label = geom.Positive
			}
			if rng.Float64() < 0.3 {
				label ^= 1
			}
			p := geom.Point{float64(x) + 0.3*float64(c), float64(x) - 0.3*float64(c)}
			ws = append(ws, geom.WeightedPoint{P: p, Label: label, Weight: 1})
		}
	}
	// An antichain of label-1 points above everything: no label-0
	// point dominates them, so none contends, but each needs a chain.
	const wide = 3000
	for i := 0; i < wide; i++ {
		p := geom.Point{float64(1000 + i), float64(1000 + wide - i)}
		ws = append(ws, geom.WeightedPoint{P: p, Label: geom.Positive, Weight: 1})
	}
	pts := pointsOf(ws)
	cover := chains.Decompose(pts).Chains
	if len(cover) < wide {
		t.Fatalf("cover has %d chains, want at least %d", len(cover), wide)
	}
	contending := contendingPoints(ws, cover)
	literal, err := PrepareLiteral(ws)
	if err != nil {
		t.Fatalf("PrepareLiteral: %v", err)
	}
	if !reflect.DeepEqual(contending, literal.Contending()) {
		t.Fatal("contending scan diverges from its definition")
	}
	view := &countingView{View: domgraph.NewImplicit(pts)}
	edges := edgesOf(view, ws, cover, contending)
	checkReachability(t, "wide", ws, contending, edges)

	m, k := 0, 0
	for _, chain := range cover {
		had := false
		for _, idx := range chain {
			if contending[idx] {
				m++
				had = true
			}
		}
		if had {
			k++
		}
	}
	if k > 3 || m < 300 {
		t.Fatalf("m=%d contending points in k=%d chains, want m ≥ 300 in at most 3", m, k)
	}
	if bound := 2*(k-1)*m + m; view.lookups > bound {
		t.Fatalf("%d lookups for m=%d contending points in k=%d chains, bound %d", view.lookups, m, k, bound)
	}
}

// checkEdgeBound holds infinityEdges to its edge budget over cover
// restricted to the contending points and split by label. An edge
// between two points of one label is a chain link: it must join
// neighbours of one chain's half, higher → lower, and there are at
// most m of them. Every other edge is a cross link and must run from
// a label-0 point to a label-1 point; the ordered pair of chains
// (a, c), c = a included, holds at most min(|a₀|, |c₁|) of them. It
// returns the cross-link count.
func checkEdgeBound(t *testing.T, ws geom.WeightedSet, cover [][]int, contending []bool, edges []edge) int {
	t.Helper()
	type slot struct{ chain, pos int } // chain, and position in its label half
	at := map[int]slot{}
	halves := make([][2]int, len(cover)) // per chain: label-0 and label-1 half sizes
	for c, chain := range cover {
		for _, idx := range chain {
			if contending[idx] {
				l := int(ws[idx].Label)
				at[idx] = slot{c, halves[c][l]}
				halves[c][l]++
			}
		}
	}
	links, cross := 0, 0
	perPair := map[[2]int]int{}
	for _, e := range edges {
		from, to := at[e.from], at[e.to]
		switch lf := ws[e.from].Label; {
		case lf == ws[e.to].Label:
			if from.chain != to.chain || from.pos != to.pos+1 {
				t.Fatalf("edge %v joins label-%d points that are not neighbours, higher → lower, in one chain", e, lf)
			}
			links++
		case lf == geom.Negative:
			perPair[[2]int{from.chain, to.chain}]++
			cross++
		default:
			t.Fatalf("cross link %v runs from a label-1 point", e)
		}
	}
	if m := len(at); links > m {
		t.Fatalf("%d chain links for m=%d contending points", links, m)
	}
	for pair, count := range perPair {
		if budget := min(halves[pair[0]][0], halves[pair[1]][1]); count > budget {
			t.Fatalf("%d cross links from chain %d into chain %d, budget min(|a₀|, |c₁|) = %d", count, pair[0], pair[1], budget)
		}
	}
	return cross
}

// TestInfinityEdgeCount: a long chain of alternating labels whose top
// fifty points dominate a prefix of a short chain. Each of the long
// chain's 100 label-0 points dominates one more label-1 member of its
// own chain than the label-0 point below it, so it spends one own-chain
// cross link; only two of them, where the prefix of the short chain's
// label-1 half grows, link into it; and the short chain's one label-0
// point links once into each chain. That is 104 cross links, exactly
// Σ_{a,c} min(|a₀|, |c₁|), and no label-1 point emits one. Random sets
// hold the same budget.
func TestInfinityEdgeCount(t *testing.T) {
	var ws geom.WeightedSet
	var long, short []int
	for x := 0; x < 200; x++ {
		long = append(long, len(ws))
		ws = append(ws, geom.WeightedPoint{P: geom.Point{float64(x), float64(x)}, Label: geom.Label(1 - x%2), Weight: 1})
	}
	// (j, 150+j) is dominated by (x, x) iff x ≥ 150+j, and is
	// incomparable with the long chain's middle.
	for j := 0; j < 3; j++ {
		short = append(short, len(ws))
		ws = append(ws, geom.WeightedPoint{P: geom.Point{float64(j), float64(150 + j)}, Label: geom.Label(1 - j%2), Weight: 1})
	}
	cover := [][]int{long, short}
	contending := contendingPoints(ws, cover)
	for i, c := range contending {
		if !c {
			t.Fatalf("point %d does not contend", i)
		}
	}
	edges := edgesOf(domgraph.NewImplicit(pointsOf(ws)), ws, cover, contending)
	checkReachability(t, "long-over-short", ws, contending, edges)
	// Budget: min(100, 100) + min(100, 2) + min(1, 100) + min(1, 2).
	if cross := checkEdgeBound(t, ws, cover, contending, edges); cross != 104 {
		t.Fatalf("%d cross links, want 104: 100 down the long chain, 2 into the short chain, 1 + 1 from its label-0 point", cross)
	}

	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 100; trial++ {
		d := 1 + rng.Intn(4)
		ws := randomWeightedSet(rng, 1+rng.Intn(60), d, 2+rng.Intn(4))
		pts := pointsOf(ws)
		for _, cover := range [][][]int{chains.Decompose(pts).Chains, chains.GreedyDecompose(pts)} {
			contending := contendingPoints(ws, cover)
			edges := edgesOf(domgraph.Build(pts), ws, cover, contending)
			checkReachability(t, "random", ws, contending, edges)
			checkEdgeBound(t, ws, cover, contending, edges)
		}
	}
}
