package problem

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/dataset"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
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

// TestPrepareModesAgree: a Problem and its write/read round trip,
// whose network is rebuilt over rank arrays from the same cover, have
// the same edges, solve bit-identically and count the same violations;
// both match the literal construction's optimum and contending set.
// The cover is a valid partition into chains no smaller than
// chains.Decompose's, exact iff it carries an antichain of Width
// points, and equal to chains.Decompose's whenever it is exact, which
// it always is at d ≤ 2.
func TestPrepareModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sets []geom.WeightedSet
	for trial := 0; trial < 25; trial++ {
		sets = append(sets, randomSet(rng, 1+rng.Intn(120), 1+rng.Intn(4)))
	}
	// The random d ≥ 3 sets leave their seed uncertified; a chain and
	// an antichain at d = 3 certify theirs.
	sets = append(sets, certifiedSet(rng, 40, true), certifiedSet(rng, 30, false))
	certified := 0
	for _, ws := range sets {
		n, d := len(ws), ws.Dim()
		literal, contending := literalSolve(t, ws)
		pts := pointsOf(ws)
		wantDec := chains.Decompose(pts)
		labels := make([]geom.Label, n)
		for i := range ws {
			labels[i] = ws[i].Label
		}
		wantViol := domgraph.Build(pts).CountViolations(labels)

		p, err := Prepare(ws, Options{})
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		wantMode := ModeImplicit
		if d >= 3 {
			wantMode = ModeDense
		}
		if p.Mode() != wantMode {
			t.Fatalf("d=%d: Prepare took %v, want %v", d, p.Mode(), wantMode)
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatalf("Write: %v", err)
		}
		q, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if q.Mode() != ModeImplicit || q.NumEdges() != p.NumEdges() {
			t.Fatalf("round trip: %v with %d edges, prepared %v with %d", q.Mode(), q.NumEdges(), p.Mode(), p.NumEdges())
		}
		first, err := p.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		for _, prob := range []*Problem{p, q} {
			tag := prob.Mode().String()
			sol, err := prob.Solve()
			if err != nil {
				t.Fatalf("Solve(%s): %v", tag, err)
			}
			sameSolution(t, tag, sol, first)
			if !almostEq(sol.WErr, literal.WErr) {
				t.Fatalf("Solve(%s): WErr = %v, literal construction %v", tag, sol.WErr, literal.WErr)
			}
			if !reflect.DeepEqual(prob.Contending(), contending) {
				t.Fatalf("%s: contending set diverges from the literal construction", tag)
			}
			got := prob.Decomposition()
			if !reflect.DeepEqual(got, p.Decomposition()) {
				t.Fatalf("%s: decomposition diverges from the prepared cover", tag)
			}
			checkCover(t, tag, pts, got, prob.ExactWidth(), wantDec)
			if d <= 2 && !prob.ExactWidth() {
				t.Fatalf("%s: width inexact at d=%d n=%d", tag, d, n)
			}
			if got := prob.Violations(); got != wantViol {
				t.Fatalf("%s: Violations = %d, want %d", tag, got, wantViol)
			}
		}
		if d >= 3 && p.ExactWidth() {
			certified++
		}
	}
	if certified < 2 {
		t.Fatalf("%d certified d ≥ 3 covers; the certified case went unchecked", certified)
	}
}

// uncertifiedSeedSet is the unit cube's eight corners at d = 3, with
// labels against the order. Its width is 3 (a middle layer), but the
// best-fit seed joins (0,1,1) above (0,1,0) and (1,0,1) above (1,0,0),
// which leaves (1,1,0) no open chain top to join: the seed holds 4
// chains, so no antichain can certify it.
func uncertifiedSeedSet() geom.WeightedSet {
	var ws geom.WeightedSet
	for c := 0; c < 8; c++ {
		p := geom.Point{float64(c >> 2), float64(c >> 1 & 1), float64(c & 1)}
		ws = append(ws, geom.WeightedPoint{P: p, Label: geom.Label(c % 2), Weight: float64(1 + c%3)})
	}
	ws[0].Label, ws[7].Label = geom.Positive, geom.Negative
	return ws
}

// certifiedSet is n labeled points at d = 3 whose best-fit seed cover
// certifies itself: one chain (its bottom is an antichain of one), or
// an antichain (n singleton chains).
func certifiedSet(rng *rand.Rand, n int, chain bool) geom.WeightedSet {
	ws := make(geom.WeightedSet, n)
	for i := range ws {
		x := float64(i)
		p := geom.Point{x, x, x}
		if !chain {
			p = geom.Point{x, float64(n) - x, 0}
		}
		ws[i] = geom.WeightedPoint{P: p, Label: geom.Label(rng.Intn(2)), Weight: 0.25 + rng.Float64()}
	}
	return ws
}

// checkCover holds a Problem's cover to its contract: a valid
// partition into ascending chains whose Width is the chain count and
// at least the minimum cover's, exact iff it carries an antichain of
// Width points, and then chains.Decompose's own cover.
func checkCover(t *testing.T, tag string, pts []geom.Point, got chains.Decomposition, exact bool, minimum chains.Decomposition) {
	t.Helper()
	if err := chains.ValidateDecomposition(pts, got.Chains); err != nil {
		t.Fatalf("%s: cover: %v", tag, err)
	}
	if got.Width != len(got.Chains) || got.Width < minimum.Width {
		t.Fatalf("%s: width %d over %d chains, minimum %d", tag, got.Width, len(got.Chains), minimum.Width)
	}
	if exact != (len(got.Antichain) == got.Width) {
		t.Fatalf("%s: exact %v with an antichain of %d points and width %d", tag, exact, len(got.Antichain), got.Width)
	}
	if err := chains.ValidateAntichain(pts, got.Antichain); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if exact && !reflect.DeepEqual(got, minimum) {
		t.Fatalf("%s: certified cover diverges from chains.Decompose", tag)
	}
}

// TestSolveOneShot: the one-shot Solve solves exactly as a prepared
// Problem of the same instance.
func TestSolveOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 12; trial++ {
		ws := randomSet(rng, 1+rng.Intn(90), 1+rng.Intn(4))
		p, err := Prepare(ws, Options{})
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		want, err := p.Solve()
		if err != nil {
			t.Fatalf("prepared Solve: %v", err)
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
	bad := geom.WeightedSet{{P: geom.Point{1}, Label: geom.Positive, Weight: -1}}
	if _, err := Prepare(bad, Options{}); err == nil {
		t.Fatal("Prepare accepted a negative weight")
	}
}

// TestAutoModeSelection: Prepare takes the dense route's seed cover at
// d ≥ 3 within the exact limit and rank arrays everywhere else.
func TestAutoModeSelection(t *testing.T) {
	ws := randomSet(rand.New(rand.NewSource(9)), 50, 3)
	ws2 := randomSet(rand.New(rand.NewSource(10)), 50, 2)
	for _, c := range []struct {
		name string
		ws   geom.WeightedSet
		opts Options
		mode MatrixMode
		path string
	}{
		{"d=3", ws, Options{}, ModeDense, chains.PathSeedDense},
		// Shrinking the exact limit below n forces the greedy fallback.
		{"d=3 past the limit", ws, Options{ExactDecomposeLimit: 10}, ModeImplicit, chains.PathGreedyFallback},
		{"d=2", ws2, Options{}, ModeImplicit, chains.PathFast2D},
	} {
		p, err := Prepare(c.ws, c.opts)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", c.name, err)
		}
		if p.Mode() != c.mode || p.Stats().DecomposePath != c.path {
			t.Fatalf("%s: %v via %s, want %v via %s", c.name, p.Mode(), p.Stats().DecomposePath, c.mode, c.path)
		}
	}
}

func TestGreedyFallbackPastExactLimit(t *testing.T) {
	ws := randomSet(rand.New(rand.NewSource(11)), 60, 3)
	p, err := Prepare(ws, Options{ExactDecomposeLimit: 8})
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
		// The default route, and the greedy fallback at d ≥ 3.
		for _, opts := range []Options{{}, {ExactDecomposeLimit: 1}} {
			p, err := Prepare(ws, opts)
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			mode := p.Mode()
			var buf bytes.Buffer
			if err := Write(&buf, p); err != nil {
				t.Fatalf("Write(%v): %v", mode, err)
			}
			q, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("Read(%v): %v", mode, err)
			}
			if q.N() != p.N() || q.Dim() != p.Dim() || q.Mode() != ModeImplicit {
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
	p, err := Prepare(ws, Options{})
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
		{"label", `"labels":[`, `"labels":[7,`},
		// Point 0's first coordinate is 0, which null must not read as.
		{"null coordinate", `"points":[[0,`, `"points":[[null,`},
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

// TestReadOlderFiles: files older builds wrote load and solve to the
// writer's answer — one whose mode is "blocked", and one carrying the
// dense matrix blob, which Read ignores. Both were written from the
// same 48-point d=3 set; solution.json holds the writer's WErr,
// assignment and anchors.
func TestReadOlderFiles(t *testing.T) {
	raw, err := os.ReadFile("testdata/older/solution.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		WErr       float64      `json:"werr"`
		Assignment []geom.Label `json:"assignment"`
		Anchors    []geom.Point `json:"anchors"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"blocked.json", "dense-matrix.json"} {
		f, err := os.Open("testdata/older/" + name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("%s: Solve: %v", name, err)
		}
		anchors := sol.Classifier.Anchors()
		if !reflect.DeepEqual(sol.Assignment, want.Assignment) || !reflect.DeepEqual(anchors, want.Anchors) {
			t.Fatalf("%s: anchors %v; the writer had %v", name, anchors, want.Anchors)
		}
		// The writer stored the flow value as werr; WErr is now summed
		// over the assignment in input order.
		if sol.Stats.FlowValue != want.WErr {
			t.Fatalf("%s: flow value %v, the writer had %v", name, sol.Stats.FlowValue, want.WErr)
		}
		var sum float64
		for i, wp := range p.WeightedSet() {
			if want.Assignment[i] != wp.Label {
				sum += wp.Weight
			}
		}
		if sol.WErr != sum {
			t.Fatalf("%s: WErr %v, input-order sum over the stored assignment %v", name, sol.WErr, sum)
		}
	}
}

// TestWErrIsInputOrderSum: with non-dyadic weights, whose float sums
// depend on their order, WErr is bit for bit what rescoring the model
// with geom.WErr gives, whichever solver pushed the flow, while the
// flow value only agrees to rounding.
func TestWErrIsInputOrderSum(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		ws := randomSet(rng, 20+rng.Intn(200), 1+rng.Intn(3))
		for i := range ws {
			ws[i].Weight = float64(1+rng.Intn(9)) / 3 * (1 + rng.Float64()/7)
		}
		p, err := Prepare(ws, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, solver := range []maxflow.Solver{nil, maxflow.Dinic} {
			sol, err := p.SolveWith(SolveOptions{Solver: solver})
			if err != nil {
				t.Fatal(err)
			}
			if want := geom.WErr(ws, sol.Classifier.Classify); sol.WErr != want {
				t.Fatalf("trial %d: WErr %v, geom.WErr %v", trial, sol.WErr, want)
			}
			if math.Abs(sol.WErr-sol.Stats.FlowValue) > 1e-9*math.Max(1, sol.WErr) {
				t.Fatalf("trial %d: WErr %v, flow value %v", trial, sol.WErr, sol.Stats.FlowValue)
			}
		}
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

// TestViolationsMethodByCost: Violations picks its method by the
// Problem's shape, not by its route — the chain count on a dense-route
// two-chain set, the rebuilt triangle on a loaded noisy set hundreds of
// chains wide — and both methods equal geom.MonotoneViolations on
// each.
func TestViolationsMethodByCost(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	narrow := make(geom.WeightedSet, 4096)
	for i := range narrow {
		j, x := float64(i%2), rng.Float64()*64
		label := geom.Negative
		if (x > 32) != (rng.Intn(10) == 0) {
			label = geom.Positive
		}
		narrow[i] = geom.WeightedPoint{P: geom.Point{x + j, x + j, x + 2 - j}, Label: label, Weight: 1}
	}
	var wide geom.WeightedSet
	for _, lp := range dataset.Planted(rng, dataset.PlantedParams{N: 2048, D: 3, Noise: 0.1}) {
		wide = append(wide, geom.WeightedPoint{P: lp.P, Label: lp.Label, Weight: 1})
	}
	for _, c := range []struct {
		name    string
		ws      geom.WeightedSet
		loaded  bool
		mode    MatrixMode
		rebuild bool
	}{
		{"dense two-chain", narrow, false, ModeDense, false},
		{"loaded noisy", wide, true, ModeImplicit, true},
	} {
		p, err := Prepare(c.ws, Options{})
		if err != nil {
			t.Fatalf("%s: Prepare: %v", c.name, err)
		}
		if c.loaded {
			var buf bytes.Buffer
			if err := Write(&buf, p); err != nil {
				t.Fatalf("%s: Write: %v", c.name, err)
			}
			if p, err = Read(&buf); err != nil {
				t.Fatalf("%s: Read: %v", c.name, err)
			}
		}
		if rebuild := rebuildCheaper(p.N(), p.Dim(), p.Width()); p.Mode() != c.mode || rebuild != c.rebuild {
			t.Fatalf("%s: mode %v, width %d, rebuild %v; want mode %v, rebuild %v",
				c.name, p.Mode(), p.Width(), rebuild, c.mode, c.rebuild)
		}
		labeled := make([]geom.LabeledPoint, p.N())
		for i, wp := range p.WeightedSet() {
			labeled[i] = geom.LabeledPoint{P: wp.P, Label: wp.Label}
		}
		want := geom.MonotoneViolations(labeled)
		if want == 0 {
			t.Fatalf("%s: no violations; the check compares nothing", c.name)
		}
		labels := p.Labels()
		rebuilt := domgraph.Build(p.Points()).CountViolations(labels)
		counted := chainCountViolations(p.Points(), labels, p.Decomposition().Chains)
		if got := p.Violations(); rebuilt != want || counted != want || got != want {
			t.Fatalf("%s: rebuilt %d, chain count %d, Violations %d; MonotoneViolations %d", c.name, rebuilt, counted, got, want)
		}
	}
}

// FuzzProblemRoundTrip holds the problem-file ingress: arbitrary bytes
// through Read must be rejected, or give a problem that solves and
// survives a second round trip; one of at most 12 points must also
// solve to a model monotone on its points at the exhaustive optimum,
// as FuzzTrainCSV holds the CSV ingress.
func FuzzProblemRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 4; i++ {
		ws := randomSet(rng, 1+rng.Intn(30), 1+rng.Intn(3))
		// The default route, and the greedy fallback at d = 3.
		for _, opts := range []Options{{}, {ExactDecomposeLimit: 1}} {
			p, err := Prepare(ws, opts)
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
	// What Prepare writes at d = 3 for a set whose seed cover holds
	// more chains than the width: the uncertified seed cover, with no
	// antichain.
	seedCover, err := Prepare(uncertifiedSeedSet(), Options{})
	if err != nil {
		f.Fatalf("seed Prepare: %v", err)
	}
	if st := seedCover.Stats(); st.DecomposePath != chains.PathSeedDense || st.ExactWidth || seedCover.Decomposition().Antichain != nil {
		f.Fatalf("seed-cover seed: %+v", st)
	}
	var seedBuf bytes.Buffer
	if err := Write(&seedBuf, seedCover); err != nil {
		f.Fatalf("seed Write: %v", err)
	}
	f.Add(seedBuf.Bytes())
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
		if p.N() <= 12 {
			checkOptimal(t, p.WeightedSet(), want)
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
