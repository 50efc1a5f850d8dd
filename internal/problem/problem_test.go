package problem

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
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

func TestPrepareMatchesLegacyAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	modes := []MatrixMode{ModeAuto, ModeDense, ModeBlocked, ModeImplicit}
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(120)
		d := 1 + rng.Intn(4)
		ws := randomSet(rng, n, d)
		legacy, err := passive.Solve(ws, passive.Options{})
		if err != nil {
			t.Fatalf("legacy solve: %v", err)
		}
		pts := pointsOf(ws)
		legacyDec := chains.Decompose(pts)
		labels := make([]geom.Label, n)
		for i := range ws {
			labels[i] = ws[i].Label
		}
		wantViol := domgraph.Build(pts).CountViolations(labels)

		for _, mode := range modes {
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
			sameSolution(t, mode.String(), sol, legacy)
			again, err := p.Solve()
			if err != nil {
				t.Fatalf("re-Solve(%v): %v", mode, err)
			}
			sameSolution(t, mode.String()+" re-solve", again, sol)
			if got := p.Decomposition(); !reflect.DeepEqual(got, legacyDec) {
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

func TestAdoptMatchesMatrixOption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(90)
		d := 1 + rng.Intn(4)
		ws := randomSet(rng, n, d)
		m := domgraph.Build(pointsOf(ws))
		legacy, err := passive.Solve(ws, passive.Options{Matrix: m})
		if err != nil {
			t.Fatalf("legacy solve: %v", err)
		}
		p, err := Adopt(ws, m)
		if err != nil {
			t.Fatalf("Adopt: %v", err)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		sameSolution(t, "adopt", sol, legacy)
		if p.Mode() != ModeDense || p.Matrix() != m {
			t.Fatalf("Adopt must retain the supplied matrix in dense mode")
		}
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
	legacy, err := passive.Solve(ws, passive.Options{})
	if err != nil {
		t.Fatalf("legacy solve: %v", err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// A wider decomposition builds a different (equivalent) network, so
	// the flow value can differ by float summation order — not bits.
	if math.Abs(sol.WErr-legacy.WErr) > 1e-9*(1+math.Abs(legacy.WErr)) {
		t.Fatalf("greedy-path WErr = %v, want %v", sol.WErr, legacy.WErr)
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
}

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
		dec := chains.Decompose(pts)
		want := domgraph.Build(pts).CountViolations(labels)
		if got := chainCountViolations(pts, labels, dec.Chains); got != want {
			t.Fatalf("trial %d: chainCountViolations = %d, want %d", trial, got, want)
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
	// A stored NaN coordinate must be rejected: the stored chains are
	// trusted only under a partial order.
	f.Add([]byte(`{"format":"monoclass-problem","version":1,"mode":"implicit","dim":2,"points":[["nan",0],[1,1]],"labels":[0,1],"weights":[1,1],"chains":[[0],[1]],"width":2,"exact_width":false}`))
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
