package conformance

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"monoclass/internal/chains"
	"monoclass/internal/classifier"
	"monoclass/internal/core"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
	"monoclass/internal/oracle"
	"monoclass/internal/passive"
	"monoclass/internal/problem"
)

// CheckFunc is one deterministic conformance check over an instance.
// A nil return means every invariant held; an error describes the
// first divergence. Checks must be pure functions of the instance
// (randomness only through generators seeded from Instance.Seed), so
// the shrinker and the replay runner see the same behavior.
type CheckFunc func(Instance) error

// Check pairs a stable name with its implementation. The name appears
// in reports and repro files.
type Check struct {
	Name string
	Fn   CheckFunc
}

// Checks returns the full deterministic suite in fixed order:
// differential checks first, metamorphic invariants second. The
// statistical (1+ε) audit of the active algorithm is not listed here —
// it is probabilistic, so the engine runs and aggregates it separately
// (see ActiveAudit).
func Checks() []Check {
	return []Check{
		{"maxflow-differential", CheckMaxflowDifferential},
		{"domgraph-kernel-vs-naive", CheckDomgraphKernel},
		{"decompose-warmstart-vs-scalar", CheckDecomposeWarmStart},
		{"classifier-indexed-vs-scalar", CheckClassifierIndexed},
		{"passive-differential", CheckPassiveDifferential},
		{"active-exhaustive-exact", CheckActiveExhaustive},
		{"online-incremental-vs-retrain", CheckOnlineIncremental},
		{"online-drift-bound", CheckOnlineDriftBound},
		{"problem-modes-agree", CheckProblemModesAgree},
		{"shard-routed-vs-direct", CheckShardRouted},
		{"meta-monotone-transform", CheckMetaMonotoneTransform},
		{"meta-duality", CheckMetaDuality},
		{"meta-duplication", CheckMetaDuplication},
		{"meta-weight-scale", CheckMetaWeightScale},
		{"meta-permutation", CheckMetaPermutation},
	}
}

// CheckByName resolves a check name from a repro file; nil when
// unknown.
func CheckByName(name string) CheckFunc {
	for _, c := range Checks() {
		if c.Name == name {
			return c.Fn
		}
	}
	return nil
}

// RunAll runs the full deterministic suite and returns the first
// divergence, prefixed with its check name.
func RunAll(in Instance) error {
	for _, c := range Checks() {
		if err := Safe(c.Fn, in); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	return nil
}

// Safe runs a check, converting panics (how kernel-internal invariant
// failures surface) into ordinary divergence errors so the engine can
// shrink and report them.
func Safe(fn CheckFunc, in Instance) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(in)
}

// almostEq compares float values with a tolerance scaled to their
// magnitude; all capacities in play are modest, so 1e-9 absolute plus
// 1e-9 relative covers legitimate summation-order differences between
// solvers while still catching any off-by-one-weight divergence.
func almostEq(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-9+1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// ---------------------------------------------------------------------
// Max-flow differential
// ---------------------------------------------------------------------

// netEdge records one edge of a constructed test network so invariants
// can be audited from outside the solver.
type netEdge struct {
	id   int
	u, v int
	cap  float64
	inf  bool
}

// testNetwork is a rebuildable network: the conformance checks run
// every solver on a fresh clone.
type testNetwork struct {
	name  string
	g     *maxflow.Network
	edges []netEdge
}

// addEdge adds and records an edge.
func (tn *testNetwork) addEdge(u, v int, cap float64) {
	id := tn.g.AddEdge(u, v, cap)
	tn.edges = append(tn.edges, netEdge{id: id, u: u, v: v, cap: cap, inf: math.IsInf(cap, 1)})
}

// passiveNetwork builds the literal Section 5.1 flow network of the
// instance (source 0, sink 1, one vertex per contending point, ∞ type-3
// edges), independently of the passive package's construction, so the
// solvers are exercised on the exact topology Theorem 4 relies on.
// Returns nil when no points contend.
func passiveNetwork(in Instance) *testNetwork {
	pts := in.Pts()
	n := in.N()
	contending := make([]bool, n)
	for i := 0; i < n; i++ {
		if in.Labels[i] != 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if in.Labels[j] != 1 {
				continue
			}
			if geom.Dominates(pts[i], pts[j]) {
				contending[i] = true
				contending[j] = true
			}
		}
	}
	vertex := make([]int, n)
	next := 2
	for i := range vertex {
		if contending[i] {
			vertex[i] = next
			next++
		} else {
			vertex[i] = -1
		}
	}
	if next == 2 {
		return nil
	}
	tn := &testNetwork{name: "passive", g: maxflow.New(next, 0, 1)}
	for i := 0; i < n; i++ {
		if !contending[i] {
			continue
		}
		if in.Labels[i] == 0 {
			tn.addEdge(0, vertex[i], in.Weights[i])
		} else {
			tn.addEdge(vertex[i], 1, in.Weights[i])
		}
	}
	for i := 0; i < n; i++ {
		if !contending[i] || in.Labels[i] != 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if !contending[j] || in.Labels[j] != 1 {
				continue
			}
			if geom.Dominates(pts[i], pts[j]) {
				tn.addEdge(vertex[i], vertex[j], math.Inf(1))
			}
		}
	}
	return tn
}

// randomTestNetwork draws a small arbitrary network; withInf sprinkles
// infinite capacities in, covering the unbounded-instance contract the
// passive topology never reaches.
func randomTestNetwork(rng *rand.Rand, name string, withInf bool) *testNetwork {
	n := 3 + rng.Intn(9)
	tn := &testNetwork{name: name, g: maxflow.New(n, 0, n-1)}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Float64() >= 0.35 {
				continue
			}
			cap := float64(1 + rng.Intn(12))
			if withInf && rng.Intn(6) == 0 {
				cap = math.Inf(1)
			}
			tn.addEdge(u, v, cap)
		}
	}
	return tn
}

// cutEdgesChecked extracts the min cut, converting the Lemma 18 panic
// (an infinite-capacity edge in the cut) into an error.
func cutEdgesChecked(r maxflow.Result) (cut []maxflow.CutEdge, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	return r.CutEdges(), nil
}

// auditSolverResult checks one solver's result against the recorded
// edge list: capacity bounds, flow conservation, and (on bounded
// instances) min-cut duality with no infinite cut edge.
func auditSolverResult(tn *testNetwork, solver string, r maxflow.Result) error {
	excess := make([]float64, tn.g.NumVertices())
	for _, e := range tn.edges {
		f := r.Flow(e.id)
		if f < -1e-9 {
			return fmt.Errorf("%s/%s: edge %d carries negative flow %g", tn.name, solver, e.id, f)
		}
		if !e.inf && f > e.cap+1e-9 {
			return fmt.Errorf("%s/%s: edge %d flow %g exceeds capacity %g", tn.name, solver, e.id, f, e.cap)
		}
		excess[e.v] += f
		excess[e.u] -= f
	}
	for v := range excess {
		want := 0.0
		switch v {
		case tn.g.Source():
			want = -r.Value
		case tn.g.Sink():
			want = r.Value
		}
		if !almostEq(excess[v], want) {
			return fmt.Errorf("%s/%s: vertex %d violates conservation: excess %g, want %g",
				tn.name, solver, v, excess[v], want)
		}
	}
	if r.IsInfinite() {
		return nil
	}
	cut, err := cutEdgesChecked(r)
	if err != nil {
		return fmt.Errorf("%s/%s: Lemma 18 violated on bounded instance: %v", tn.name, solver, err)
	}
	var cutWeight float64
	for _, e := range cut {
		if math.IsInf(e.Capacity, 1) {
			return fmt.Errorf("%s/%s: infinite edge %d reported in cut", tn.name, solver, e.ID)
		}
		cutWeight += e.Capacity
	}
	if !almostEq(cutWeight, r.Value) {
		return fmt.Errorf("%s/%s: cut weight %g != flow value %g (duality)", tn.name, solver, cutWeight, r.Value)
	}
	return nil
}

// CheckMaxflowDifferential runs all four solvers on the instance's
// Section 5.1 network and on seeded random networks (with and without
// infinite edges), asserting equal flow values, consistent
// boundedness, valid cuts, Lemma 18, and flow conservation.
func CheckMaxflowDifferential(in Instance) error {
	rng := rand.New(rand.NewSource(in.Seed ^ 0x6d61786670))
	var nets []*testNetwork
	if tn := passiveNetwork(in); tn != nil {
		nets = append(nets, tn)
	}
	nets = append(nets,
		randomTestNetwork(rng, "random", false),
		randomTestNetwork(rng, "random-inf", true),
	)
	for _, tn := range nets {
		ref := maxflow.Dinic(tn.g.Clone())
		if err := auditSolverResult(tn, "dinic", ref); err != nil {
			return err
		}
		if tn.name == "passive" && ref.IsInfinite() {
			return fmt.Errorf("passive network reports unbounded flow (Lemma 18 precondition broken)")
		}
		for _, name := range maxflow.SolverNames() {
			if name == "dinic" {
				continue
			}
			r := maxflow.Solvers()[name](tn.g.Clone())
			if r.IsInfinite() != ref.IsInfinite() {
				return fmt.Errorf("%s: %s boundedness %v != dinic %v", tn.name, name, r.IsInfinite(), ref.IsInfinite())
			}
			if !r.IsInfinite() && !almostEq(r.Value, ref.Value) {
				return fmt.Errorf("%s: %s flow value %g != dinic %g", tn.name, name, r.Value, ref.Value)
			}
			if err := auditSolverResult(tn, name, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Dominance kernel differential
// ---------------------------------------------------------------------

// CheckDomgraphKernel holds the bit-packed parallel builder to exact
// agreement with the scalar oracle, then cross-checks the word-level
// kernels (violation counting, contending extraction, antichain test)
// against direct scalar computation.
func CheckDomgraphKernel(in Instance) error {
	pts := in.Pts()
	labels := in.GeomLabels()
	fast := domgraph.Build(pts)
	naive := domgraph.BuildNaive(pts)
	if d := domgraph.Diff(fast, naive); d != "" {
		return fmt.Errorf("Build vs BuildNaive: %s", d)
	}

	if got, want := fast.CountViolations(labels), geom.MonotoneViolations(in.Labeled()); got != want {
		return fmt.Errorf("CountViolations %d != scalar MonotoneViolations %d", got, want)
	}

	// The contending set of a prepared problem (minimum cover) and of
	// the network over a greedy cover, against the scalar definition.
	n := in.N()
	if n > 0 {
		p, err := problem.Prepare(in.WeightedSet(), problem.Options{})
		if err != nil {
			return fmt.Errorf("Prepare: %w", err)
		}
		covers := map[string][]bool{
			"minimum": p.Contending(),
			"greedy":  passive.Prepare(p.WeightedSet(), domgraph.NewImplicit(pts), chains.GreedyDecompose(pts)).Contending(),
		}
		for i := 0; i < n; i++ {
			want := false
			for j := 0; j < n && !want; j++ {
				if labels[i] == geom.Negative && labels[j] == geom.Positive && geom.Dominates(pts[i], pts[j]) {
					want = true
				}
				if labels[i] == geom.Positive && labels[j] == geom.Negative && geom.Dominates(pts[j], pts[i]) {
					want = true
				}
			}
			for cover, got := range covers {
				if got[i] != want {
					return fmt.Errorf("%s cover: Contending[%d] = %v, scalar says %v", cover, i, got[i], want)
				}
			}
		}
	}

	// Antichain kernel vs scalar pairwise scan on seeded subsets.
	rng := rand.New(rand.NewSource(in.Seed ^ 0x616e7469))
	for trial := 0; trial < 4 && n > 0; trial++ {
		k := 1 + rng.Intn(minInt(n, 10))
		idx := rng.Perm(n)[:k]
		got := fast.IsAntichain(idx)
		want := chains.ValidateAntichain(pts, idx) == nil
		if got != want {
			return fmt.Errorf("IsAntichain(%v) = %v, scalar says %v", idx, got, want)
		}
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------
// Indexed classifier differential
// ---------------------------------------------------------------------

// classidxSpecials are the coordinate values that exercise every edge
// of the dominance comparison the classification index must reproduce:
// infinities (the ConstPositive bottom anchor is all -Inf), NaN (which
// passes every anchor test as a query coordinate and acts as -Inf as an
// anchor coordinate), zero, and extreme finite magnitudes.
var classidxSpecials = []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, 1, -1, 1e308, -1e308}

// classidxCoord draws a coordinate from a small integer grid (dense
// ties and duplicates), special with probability 1/4.
func classidxCoord(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return classidxSpecials[rng.Intn(len(classidxSpecials))]
	}
	return math.Floor(rng.Float64()*16) - 8
}

// CheckClassifierIndexed holds AnchorSet's indexed classification paths
// (sorted 1-D/2-D fast paths, bit-packed anchor matrix, batch
// kernel) to exact agreement with the scalar anchor scan
// (ClassifyScalar): anchor sets are derived from the instance and from
// seeded random pools with ±Inf and duplicate coordinates, queried with
// points that include NaN, infinities, and the anchors themselves, both
// point-by-point and through ClassifyBatchInto.
func CheckClassifierIndexed(in Instance) error {
	rng := rand.New(rand.NewSource(in.Seed ^ 0x636c7378))
	pts := in.Pts()
	d := in.Dim()
	if d == 0 {
		d = 1 + rng.Intn(5)
	}

	// Anchor pools: the instance's positive points, all instance points,
	// the constant-positive bottom anchor, and random pools with special
	// coordinates. NewAnchorSet prunes each pool to its minimal
	// antichain; the differential runs on whatever survives.
	var pos []geom.Point
	for i, p := range pts {
		if in.Labels[i] == 1 {
			pos = append(pos, p)
		}
	}
	bottom := make(geom.Point, d)
	for k := range bottom {
		bottom[k] = math.Inf(-1)
	}
	pools := [][]geom.Point{pos, pts, nil, {bottom}}
	for trial := 0; trial < 2; trial++ {
		raw := make([]geom.Point, 1+rng.Intn(60))
		for i := range raw {
			q := make(geom.Point, d)
			for k := range q {
				q[k] = classidxCoord(rng)
			}
			raw[i] = q
		}
		pools = append(pools, raw)
	}

	for pi, anchors := range pools {
		h, err := classifier.NewAnchorSet(d, anchors)
		if err != nil {
			return fmt.Errorf("pool %d: NewAnchorSet: %w", pi, err)
		}
		queries := make([]geom.Point, 0, 32+len(h.Anchors()))
		for i := 0; i < 32; i++ {
			q := make(geom.Point, d)
			for k := range q {
				q[k] = classidxCoord(rng)
			}
			queries = append(queries, q)
		}
		queries = append(queries, h.Anchors()...) // exact anchor hits
		for _, q := range queries {
			if got, want := h.Classify(q), h.ClassifyScalar(q); got != want {
				return fmt.Errorf("pool %d (m=%d): indexed Classify(%v) = %v, scalar says %v",
					pi, len(h.Anchors()), q, got, want)
			}
		}
		dst := make([]geom.Label, len(queries))
		h.ClassifyBatchInto(dst, queries)
		for i, q := range queries {
			if want := h.ClassifyScalar(q); dst[i] != want {
				return fmt.Errorf("pool %d (m=%d): batch slot %d (%v) = %v, scalar says %v",
					pi, len(h.Anchors()), i, q, dst[i], want)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Chain decomposition differential
// ---------------------------------------------------------------------

// validateDecomposition asserts a decomposition is a valid minimum
// certificate pair: a chain partition of the right cardinality plus an
// antichain of matching size.
func validateDecomposition(tag string, pts []geom.Point, dec chains.Decomposition) error {
	if err := chains.ValidateDecomposition(pts, dec.Chains); err != nil {
		return fmt.Errorf("%s: %w", tag, err)
	}
	if err := chains.ValidateAntichain(pts, dec.Antichain); err != nil {
		return fmt.Errorf("%s: %w", tag, err)
	}
	if dec.Width != len(dec.Chains) {
		return fmt.Errorf("%s: width %d != %d chains", tag, dec.Width, len(dec.Chains))
	}
	if len(dec.Antichain) != dec.Width {
		return fmt.Errorf("%s: antichain size %d != width %d", tag, len(dec.Antichain), dec.Width)
	}
	return nil
}

// ---------------------------------------------------------------------
// Passive solver differential
// ---------------------------------------------------------------------

// solveVariant is one redundant way to solve an instance.
type solveVariant struct {
	name  string
	solve func() (passive.Solution, error)
}

// auditSolution checks a solution's internal consistency: the
// assignment's weighted disagreement equals the reported optimum, the
// returned classifier reproduces the assignment on the inputs, and the
// classifier is monotone over the inputs.
func auditSolution(tag string, ws geom.WeightedSet, sol passive.Solution) error {
	var disagree float64
	for i, wp := range ws {
		if sol.Assignment[i] != wp.Label {
			disagree += wp.Weight
		}
	}
	if !almostEq(disagree, sol.WErr) {
		return fmt.Errorf("%s: assignment disagreement %g != reported optimum %g", tag, disagree, sol.WErr)
	}
	pts := make([]geom.Point, len(ws))
	for i, wp := range ws {
		pts[i] = wp.P
	}
	for i, p := range pts {
		if got := sol.Classifier.Classify(p); got != sol.Assignment[i] {
			return fmt.Errorf("%s: classifier(%v) = %v, assignment says %v", tag, p, got, sol.Assignment[i])
		}
	}
	if ok, p, q := classifier.IsMonotoneOn(pts, sol.Classifier); !ok {
		return fmt.Errorf("%s: classifier not monotone: h(%v) < h(%v)", tag, p, q)
	}
	return nil
}

// CheckPassiveDifferential solves the instance through every redundant
// configuration — the prepared network under every registered max-flow
// solver, the literal Section 5.1 construction, and the network over a
// greedy (possibly wider) chain cover — and requires equal optima and
// contending counts; small instances are additionally checked against
// the exponential NaiveSolve.
func CheckPassiveDifferential(in Instance) error {
	ws := in.WeightedSet()
	if len(ws) == 0 {
		if _, err := problem.Solve(ws); err == nil {
			return fmt.Errorf("Solve accepted an empty set")
		}
		if _, err := passive.PrepareLiteral(ws); err == nil {
			return fmt.Errorf("PrepareLiteral accepted an empty set")
		}
		if _, err := passive.NaiveSolve(ws); err == nil {
			return fmt.Errorf("NaiveSolve accepted an empty set")
		}
		return nil
	}

	p, err := problem.Prepare(ws, problem.Options{})
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	base, err := p.Solve()
	if err != nil {
		return fmt.Errorf("base solve: %w", err)
	}
	if err := auditSolution("base", ws, base); err != nil {
		return err
	}

	literal, err := passive.PrepareLiteral(ws)
	if err != nil {
		return fmt.Errorf("dense prepare: %w", err)
	}
	variants := []solveVariant{
		{"dense", func() (passive.Solution, error) { return literal.Resolve(nil) }},
		// A valid but possibly wider cover: the greedy-fallback path
		// problem.Prepare takes past its exact-decomposition limit.
		{"greedy-chains", func() (passive.Solution, error) {
			return passive.Prepare(ws, domgraph.NewImplicit(in.Pts()), chains.GreedyDecompose(in.Pts())).Resolve(nil)
		}},
	}
	// Every registered max-flow solver drives the prepared network;
	// registry additions are covered without touching this file.
	for name, solver := range maxflow.Solvers() {
		variants = append(variants, solveVariant{name, func() (passive.Solution, error) {
			return p.SolveWith(problem.SolveOptions{Solver: solver})
		}})
	}
	for _, v := range variants {
		sol, err := v.solve()
		if err != nil {
			return fmt.Errorf("%s solve: %w", v.name, err)
		}
		if !almostEq(sol.WErr, base.WErr) {
			return fmt.Errorf("%s optimum %g != base optimum %g", v.name, sol.WErr, base.WErr)
		}
		if sol.Stats.Contending != base.Stats.Contending {
			return fmt.Errorf("%s contending %d != base contending %d", v.name, sol.Stats.Contending, base.Stats.Contending)
		}
		if err := auditSolution(v.name, ws, sol); err != nil {
			return err
		}
	}

	if n := len(ws); n <= 15 && n <= passive.NaiveLimit {
		naive, err := passive.NaiveSolve(ws)
		if err != nil {
			return fmt.Errorf("naive solve: %w", err)
		}
		if !almostEq(naive.WErr, base.WErr) {
			return fmt.Errorf("naive optimum %g != flow optimum %g", naive.WErr, base.WErr)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Active pipeline, exhaustive mode (deterministic, exact)
// ---------------------------------------------------------------------

// activeMaxN bounds the instance size the active checks run on;
// larger instances are legal but redundant for this check and slow
// under -race.
const activeMaxN = 400

// exhaustiveParams requests exact probing (Epsilon <= 0): every point
// is revealed, Σ equals P with unit weights, and the result must match
// the passive optimum exactly.
func exhaustiveParams() core.Params {
	return core.Params{Epsilon: 0, Delta: 0.5, SampleConstant: 3, PhiDivisor: 256, BaseCase: 7}
}

// CheckActiveExhaustive runs the Theorem 2+3 pipeline with exhaustive
// probing and requires exact agreement with the passive optimum on
// unit weights: same error, same width as the decomposition oracle,
// every point probed exactly once. Σ, solved over P's cover restricted
// to it, must also give problem.Solve(Σ)'s optimum and anchors bit for
// bit: its weights are integral, so both flows are exact.
func CheckActiveExhaustive(in Instance) error {
	n := in.N()
	if n == 0 {
		if _, err := core.ActiveLearn(nil, oracle.NewStatic(nil), exhaustiveParams(), rand.New(rand.NewSource(1))); err == nil {
			return fmt.Errorf("ActiveLearn accepted an empty set")
		}
		return nil
	}
	if n > activeMaxN {
		return nil
	}
	pts := in.Pts()
	labels := in.GeomLabels()
	lab := in.Labeled()

	unit := make(geom.WeightedSet, n)
	for i := range unit {
		unit[i] = geom.WeightedPoint{P: pts[i], Label: labels[i], Weight: 1}
	}
	opt, err := problem.Solve(unit)
	if err != nil {
		return fmt.Errorf("passive optimum: %w", err)
	}

	rng := rand.New(rand.NewSource(in.Seed ^ 0x61637469))
	res, err := core.ActiveLearn(pts, oracle.NewStatic(labels), exhaustiveParams(), rng)
	if err != nil {
		return fmt.Errorf("exhaustive active run: %w", err)
	}
	if res.Probes != n {
		return fmt.Errorf("exhaustive mode probed %d of %d points", res.Probes, n)
	}
	if w := chains.Width(pts); res.Width != w || !res.ExactWidth {
		return fmt.Errorf("active pipeline width %d (exact %v) != decomposition width %d", res.Width, res.ExactWidth, w)
	}
	own, err := problem.Solve(res.Sigma)
	if err != nil {
		return fmt.Errorf("problem.Solve(Σ): %w", err)
	}
	if a, b := res.Classifier.Anchors(), own.Classifier.Anchors(); res.SigmaWErr != own.WErr || !reflect.DeepEqual(a, b) {
		return fmt.Errorf("Σ on the inherited cover: optimum %v anchors %v, problem.Solve(Σ) %v anchors %v", res.SigmaWErr, a, own.WErr, b)
	}
	if !almostEq(res.SigmaWErr, opt.WErr) {
		return fmt.Errorf("exhaustive surrogate optimum %g != passive optimum %g", res.SigmaWErr, opt.WErr)
	}
	if errP := float64(geom.Err(lab, res.Classifier.Classify)); !almostEq(errP, opt.WErr) {
		return fmt.Errorf("exhaustive classifier error %g != passive optimum %g", errP, opt.WErr)
	}
	return nil
}
