package problem

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/passive"
)

// randomSet draws a labeled weighted set with deliberate dominance
// structure: small coordinate alphabet, duplicate points, mixed
// labels, varied weights.
func randomSet(rng *rand.Rand, n, d int) geom.WeightedSet {
	ws := make(geom.WeightedSet, n)
	for i := range ws {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = float64(rng.Intn(6))
		}
		if i > 0 && rng.Intn(6) == 0 {
			p = ws[rng.Intn(i)].P.Clone()
		}
		ws[i] = geom.WeightedPoint{
			P:      p,
			Label:  geom.Label(rng.Intn(2)),
			Weight: 0.25 + rng.Float64(),
		}
	}
	return ws
}

func sameSolution(t *testing.T, tag string, got, want passive.Solution) {
	t.Helper()
	if got.WErr != want.WErr {
		t.Fatalf("%s: WErr = %v, want %v", tag, got.WErr, want.WErr)
	}
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Fatalf("%s: assignments differ", tag)
	}
	if !reflect.DeepEqual(got.Classifier.Anchors(), want.Classifier.Anchors()) {
		t.Fatalf("%s: anchors differ", tag)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats = %+v, want %+v", tag, got.Stats, want.Stats)
	}
}

// literalSolve solves ws through the literal Section 5.1 construction,
// the reference every prepared network must agree with.
func literalSolve(t *testing.T, ws geom.WeightedSet) (passive.Solution, []bool) {
	t.Helper()
	pp, err := passive.PrepareLiteral(ws)
	if err != nil {
		t.Fatalf("literal prepare: %v", err)
	}
	sol, err := pp.Resolve(nil)
	if err != nil {
		t.Fatalf("literal solve: %v", err)
	}
	return sol, pp.Contending()
}

// almostEq compares flow values across different network
// constructions, whose arc orders may round the sum differently.
func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}

// TestPrepareModesAgree: every mode builds its network with the one
// builder over the same cover, so dense, blocked, implicit and a
// write/read round trip solve bit-identically; the optimum and the
// contending set match the literal construction, and each mode counts
// the same violations.
func TestPrepareModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	modes := []MatrixMode{ModeAuto, ModeDense, ModeBlocked, ModeImplicit}
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(120)
		d := 1 + rng.Intn(4)
		ws := randomSet(rng, n, d)
		literal, contending := literalSolve(t, ws)
		pts := pointsOf(ws)
		wantDec := chains.Decompose(pts)
		labels := make([]geom.Label, n)
		for i := range ws {
			labels[i] = ws[i].Label
		}
		wantViol := domgraph.Build(pts).CountViolations(labels)

		var first passive.Solution
		for k, mode := range modes {
			p, err := Prepare(ws, Options{Mode: mode})
			if err != nil {
				t.Fatalf("Prepare(%v): %v", mode, err)
			}
			if p.Mode() == ModeAuto {
				t.Fatalf("Prepare(%v): mode not resolved", mode)
			}
			sol, err := p.Solve()
			if err != nil {
				t.Fatalf("Solve(%v): %v", mode, err)
			}
			if k == 0 {
				first = sol
			}
			sameSolution(t, mode.String(), sol, first)
			if !almostEq(sol.WErr, literal.WErr) {
				t.Fatalf("Solve(%v): WErr = %v, literal construction %v", mode, sol.WErr, literal.WErr)
			}
			if !reflect.DeepEqual(p.Contending(), contending) {
				t.Fatalf("Prepare(%v): contending set diverges from the literal construction", mode)
			}
			again, err := p.Solve()
			if err != nil {
				t.Fatalf("re-Solve(%v): %v", mode, err)
			}
			sameSolution(t, mode.String()+" re-solve", again, sol)
			if got := p.Decomposition(); !reflect.DeepEqual(got, wantDec) {
				t.Fatalf("Prepare(%v): decomposition diverges from chains.Decompose", mode)
			}
			if !p.ExactWidth() {
				t.Fatalf("Prepare(%v): width inexact at n=%d", mode, n)
			}
			if got := p.Violations(); got != wantViol {
				t.Fatalf("Prepare(%v): Violations = %d, want %d", mode, got, wantViol)
			}
		}
	}
}

// TestSolveOneShot: the one-shot Solve, implicit at d ≤ 2 and auto
// above, solves exactly as a dense Problem of the same instance.
func TestSolveOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 12; trial++ {
		ws := randomSet(rng, 1+rng.Intn(90), 1+rng.Intn(4))
		p, err := Prepare(ws, Options{Mode: ModeDense})
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		want, err := p.Solve()
		if err != nil {
			t.Fatalf("dense Solve: %v", err)
		}
		got, err := Solve(ws)
		if err != nil {
			t.Fatalf("one-shot Solve: %v", err)
		}
		sameSolution(t, "one-shot", got, want)
	}
	if _, err := Solve(nil); err == nil {
		t.Fatal("Solve accepted an empty set")
	}
}

func TestPrepareErrors(t *testing.T) {
	if _, err := Prepare(nil, Options{}); err == nil {
		t.Fatal("Prepare accepted an empty set")
	}
	ws := geom.WeightedSet{{P: geom.Point{1, 2}, Label: geom.Positive, Weight: 1}}
	if _, err := Prepare(ws, Options{Mode: ModeDense, MaxDenseBytes: 1}); err == nil {
		t.Fatal("dense mode ignored its memory guard")
	}
	// Auto must fall through the guard instead of failing.
	p, err := Prepare(ws, Options{MaxDenseBytes: 1})
	if err != nil {
		t.Fatalf("auto mode under a tiny guard: %v", err)
	}
	if p.Mode() == ModeDense {
		t.Fatal("auto mode materialized dense past the guard")
	}
	bad := geom.WeightedSet{{P: geom.Point{1}, Label: geom.Positive, Weight: -1}}
	if _, err := Prepare(bad, Options{}); err == nil {
		t.Fatal("Prepare accepted a negative weight")
	}
}

func TestAutoModeSelection(t *testing.T) {
	ws := randomSet(rand.New(rand.NewSource(9)), 50, 3)
	small, err := Prepare(ws, Options{})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if small.Mode() != ModeDense {
		t.Fatalf("small auto mode = %v, want dense", small.Mode())
	}
	// Shrinking the dense limit below n forces the large-instance arm.
	big3, err := Prepare(ws, Options{DenseLimit: 10})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if big3.Mode() != ModeBlocked {
		t.Fatalf("large d=3 auto mode = %v, want blocked", big3.Mode())
	}
	ws2 := randomSet(rand.New(rand.NewSource(10)), 50, 2)
	big2, err := Prepare(ws2, Options{DenseLimit: 10})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if big2.Mode() != ModeImplicit {
		t.Fatalf("large d=2 auto mode = %v, want implicit", big2.Mode())
	}
}

func TestGreedyFallbackPastExactLimit(t *testing.T) {
	ws := randomSet(rand.New(rand.NewSource(11)), 60, 3)
	p, err := Prepare(ws, Options{Mode: ModeBlocked, ExactDecomposeLimit: 8})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if p.ExactWidth() {
		t.Fatal("greedy fallback claimed an exact width")
	}
	if err := chains.ValidateDecomposition(p.Points(), p.Decomposition().Chains); err != nil {
		t.Fatalf("greedy decomposition invalid: %v", err)
	}
	// Even with the wider decomposition, the optimum is the optimum.
	literal, contending := literalSolve(t, ws)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEq(sol.WErr, literal.WErr) {
		t.Fatalf("greedy-path WErr = %v, literal construction %v", sol.WErr, literal.WErr)
	}
	if !reflect.DeepEqual(p.Contending(), contending) {
		t.Fatal("greedy-path contending set diverges from the literal construction")
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(80)
		d := 1 + rng.Intn(4)
		ws := randomSet(rng, n, d)
		if trial%3 == 0 {
			// ±Inf coordinates must survive the encoding.
			ws[rng.Intn(n)].P[rng.Intn(d)] = math.Inf(1 - 2*rng.Intn(2))
		}
		for _, mode := range []MatrixMode{ModeDense, ModeBlocked, ModeImplicit} {
			p, err := Prepare(ws, Options{Mode: mode})
			if err != nil {
				t.Fatalf("Prepare(%v): %v", mode, err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, p); err != nil {
				t.Fatalf("Write(%v): %v", mode, err)
			}
			q, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("Read(%v): %v", mode, err)
			}
			if q.N() != p.N() || q.Dim() != p.Dim() || q.Mode() != p.Mode() {
				t.Fatalf("round trip(%v): shape changed", mode)
			}
			if !reflect.DeepEqual(q.Decomposition(), p.Decomposition()) {
				t.Fatalf("round trip(%v): decomposition changed", mode)
			}
			want, err := p.Solve()
			if err != nil {
				t.Fatalf("Solve(%v): %v", mode, err)
			}
			got, err := q.Solve()
			if err != nil {
				t.Fatalf("reread Solve(%v): %v", mode, err)
			}
			sameSolution(t, "round trip "+mode.String(), got, want)
			if q.Violations() != p.Violations() {
				t.Fatalf("round trip(%v): violations changed", mode)
			}
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	ws := randomSet(rand.New(rand.NewSource(13)), 40, 3)
	ws[0].P[0] = 0
	p, err := Prepare(ws, Options{Mode: ModeDense})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatalf("Write: %v", err)
	}
	good := buf.String()

	cases := []struct{ name, from, to string }{
		{"format", `"format":"monoclass-problem"`, `"format":"bogus"`},
		{"version", `"version":1`, `"version":9`},
		{"mode", `"mode":"dense"`, `"mode":"auto"`},
		{"label", `"labels":[`, `"labels":[7,`},
		// Point 0's first coordinate is 0, which null must not read as.
		{"null coordinate", `"points":[[0,`, `"points":[[null,`},
	}
	// One closure bit set in the stored matrix words at a pair the
	// points do not relate: the blob stays structurally valid
	// (reflexive, DAG ⊆ closure), but the network would carry an ∞
	// edge the points do not justify.
	var pf problemFile
	if err := json.Unmarshal(buf.Bytes(), &pf); err != nil || pf.Matrix == nil {
		t.Fatalf("dense file carries no matrix words (%v)", err)
	}
	dom, err := decodeWords(pf.Matrix.Dom)
	if err != nil {
		t.Fatalf("decodeWords: %v", err)
	}
	m := p.Matrix()
	for pair := 0; pair < m.N()*m.N(); pair++ {
		if i, j := pair/m.N(), pair%m.N(); !m.Dominates(i, j) {
			dom[i*m.Words()+j>>6] |= 1 << (j & 63)
			cases = append(cases, struct{ name, from, to string }{"matrix bit", pf.Matrix.Dom, encodeWords(dom)})
			break
		}
	}
	if cases[len(cases)-1].name != "matrix bit" {
		t.Fatal("instance is a total order; no closure bit to set")
	}
	for _, c := range cases {
		mutated := bytes.Replace([]byte(good), []byte(c.from), []byte(c.to), 1)
		if bytes.Equal(mutated, []byte(good)) {
			t.Fatalf("%s: mutation did not apply", c.name)
		}
		if _, err := Read(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("%s: corrupted file accepted", c.name)
		}
	}
	// Bytes after the JSON value: garbage, or a second problem file.
	// Trailing whitespace stays legal.
	for _, suffix := range []string{"garbage", "{}", good} {
		if _, err := Read(strings.NewReader(good + suffix)); err == nil {
			t.Fatalf("trailing %.20q accepted", suffix)
		}
	}
	if _, err := Read(strings.NewReader(good + " \n\t")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

// TestChainCountViolations: the chain count equals the popcount over
// the minimum cover and over the greedy cover that the d ≥ 3 implicit
// fallback carries.
func TestChainCountViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(120)
		d := 1 + rng.Intn(3)
		ws := randomSet(rng, n, d)
		pts := pointsOf(ws)
		labels := make([]geom.Label, n)
		for i := range ws {
			labels[i] = ws[i].Label
		}
		want := domgraph.Build(pts).CountViolations(labels)
		for cover, chainSets := range map[string][][]int{
			"minimum": chains.Decompose(pts).Chains,
			"greedy":  chains.GreedyDecompose(pts),
		} {
			if got := chainCountViolations(pts, labels, chainSets); got != want {
				t.Fatalf("trial %d: %s cover: chainCountViolations = %d, want %d", trial, cover, got, want)
			}
		}
	}
}

func FuzzProblemRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 4; i++ {
		ws := randomSet(rng, 1+rng.Intn(30), 1+rng.Intn(3))
		for _, mode := range []MatrixMode{ModeDense, ModeImplicit} {
			p, err := Prepare(ws, Options{Mode: mode})
			if err != nil {
				f.Fatalf("seed Prepare: %v", err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, p); err != nil {
				f.Fatalf("seed Write: %v", err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte(`{"format":"monoclass-problem","version":1}`))
	f.Add([]byte(`not json`))
	// Trailing data after a valid file must be rejected.
	f.Add([]byte(`{"format":"monoclass-problem","version":1,"mode":"implicit","dim":1,"points":[[0],[1]],"labels":[0,1],"weights":[1,1],"chains":[[0,1]],"width":1,"exact_width":true}garbage`))
	// A stored NaN coordinate must be rejected: the stored chains are
	// trusted only under a partial order.
	f.Add([]byte(`{"format":"monoclass-problem","version":1,"mode":"implicit","dim":2,"points":[["nan",0],[1,1]],"labels":[0,1],"weights":[1,1],"chains":[[0],[1]],"width":2,"exact_width":false}`))
	f.Add([]byte(`{"format":"monoclass-problem","version":1,"mode":"implicit","dim":2,"points":[[null,0],[1,1]],"labels":[0,1],"weights":[1,1],"chains":[[0],[1]],"width":2,"exact_width":false}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejecting garbage is the contract
		}
		if err := p.WeightedSet().Validate(); err != nil {
			t.Fatalf("accepted problem fails validation: %v", err)
		}
		// Anything Read accepts must solve and survive a second trip.
		want, err := p.Solve()
		if err != nil {
			t.Fatalf("accepted problem fails to solve: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		q, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reread of own output: %v", err)
		}
		got, err := q.Solve()
		if err != nil {
			t.Fatalf("reread solve: %v", err)
		}
		if got.WErr != want.WErr || !reflect.DeepEqual(got.Assignment, want.Assignment) {
			t.Fatal("round trip changed the solution")
		}
	})
}
