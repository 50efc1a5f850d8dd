package online

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
	"monoclass/internal/passive"
	"monoclass/internal/problem"
)

func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9 || diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// traceStep mutates both the updater and a mirror multiset with one
// random delta: ~60% inserts from a small grid (dense in duplicates),
// ~40% deletes of a random live point. It returns the mirror.
func traceStep(t *testing.T, rng *rand.Rand, u *Updater, mirror geom.WeightedSet, dim int) geom.WeightedSet {
	t.Helper()
	if len(mirror) == 0 || rng.Intn(5) < 3 {
		p := make(geom.Point, dim)
		for i := range p {
			p[i] = float64(rng.Intn(6))
		}
		wp := geom.WeightedPoint{P: p, Label: geom.Label(rng.Intn(2)), Weight: float64(1 + rng.Intn(4))}
		if err := u.Apply(Delta{Op: OpInsert, Point: wp.P, Label: wp.Label, Weight: wp.Weight}); err != nil {
			t.Fatalf("insert: %v", err)
		}
		return append(mirror, wp)
	}
	k := rng.Intn(len(mirror))
	victim := mirror[k]
	if err := u.Apply(Delta{Op: OpDelete, Point: victim.P, Label: victim.Label}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	// The updater deletes the FIFO-first (point, label) match; mirror
	// the same rule so multiset weights stay aligned.
	for i, wp := range mirror {
		if wp.Label == victim.Label && wp.P.Equal(victim.P) {
			return append(mirror[:i], mirror[i+1:]...)
		}
	}
	t.Fatalf("mirror desync: %v not found", victim)
	return nil
}

// retrain solves the mirror multiset from scratch through
// problem.Prepare with default Options, with a cold workspace — the
// differential baseline.
func retrain(t *testing.T, mirror geom.WeightedSet) passive.Solution {
	t.Helper()
	cold := maxflow.NewWorkspace()
	p, err := problem.Prepare(mirror, problem.Options{})
	if err != nil {
		t.Fatalf("retrain: %v", err)
	}
	sol, err := p.SolveWith(problem.SolveOptions{
		Solver: func(g *maxflow.Network) maxflow.Result { return maxflow.SolveWith(cold, g) },
	})
	if err != nil {
		t.Fatalf("retrain: %v", err)
	}
	return sol
}

// TestIncrementalVsRetrain1000 is the headline differential: a
// 1200-step random insert/delete trace with RebuildEvery=1 (every
// delta exact), holding the incremental state to full-retrain
// equality after every single delta — same optimal weighted error,
// same assignment (bit-identical networks force a unique solver
// trajectory), and a maintained werr that matches an independent
// rescore of the model over the live multiset.
func TestIncrementalVsRetrain1000(t *testing.T) {
	const dim, steps = 3, 1200
	rng := rand.New(rand.NewSource(1))
	u, err := NewUpdater(dim, nil, Config{RebuildEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mirror geom.WeightedSet
	for step := 0; step < steps; step++ {
		mirror = traceStep(t, rng, u, mirror, dim)
		if len(mirror) == 0 {
			continue
		}
		// Cheap invariants every step; the expensive retrain on a
		// schedule that still covers hundreds of states.
		checkExact(t, step, u, mirror, step < 200 || step%7 == 0)
	}
	if s := u.Stats(); s.ExactSolves < steps {
		t.Errorf("RebuildEvery=1 ran %d exact solves over %d deltas", s.ExactSolves, steps)
	}
}

// checkExact holds an updater in exact mode to its mirror multiset:
// same live size, a maintained werr equal to a rescore of the model,
// zero drift and, when full is set, a full retrain's werr and
// assignment (bit-identical networks force a unique solver trajectory).
func checkExact(t *testing.T, step int, u *Updater, mirror geom.WeightedSet, full bool) {
	t.Helper()
	live := u.Live()
	if len(live) != len(mirror) {
		t.Fatalf("step %d: live size %d, mirror %d", step, len(live), len(mirror))
	}
	if got := geom.WErr(live, u.Model().Classify); !almostEq(got, u.WErr()) {
		t.Fatalf("step %d: maintained werr %g, rescore %g", step, u.WErr(), got)
	}
	if u.DriftBound() != 0 {
		t.Fatalf("step %d: drift %g after exact solve", step, u.DriftBound())
	}
	if !full || len(mirror) == 0 {
		return
	}
	sol := retrain(t, mirror)
	if !almostEq(sol.WErr, u.WErr()) {
		t.Fatalf("step %d: incremental werr %g, retrain %g", step, u.WErr(), sol.WErr)
	}
	for i := range live {
		if got := u.Model().Classify(live[i].P); got != sol.Assignment[i] {
			t.Fatalf("step %d: point %d label %v, retrain %v", step, i, got, sol.Assignment[i])
		}
	}
}

// TestNewUpdaterFromProblem seeds updaters from Problems of every
// route — dense, the d ≥ 3 greedy fallback over rank arrays, and d ≤ 2
// rank arrays: the first model is the Problem's own solve, the live
// multiset is its point set in input order, and every exact step of a
// delta trace afterwards matches a retrain.
func TestNewUpdaterFromProblem(t *testing.T) {
	cases := []struct {
		name string
		dim  int
		opts problem.Options
		mode problem.MatrixMode
	}{
		{"dense", 3, problem.Options{}, problem.ModeDense},
		{"greedy", 3, problem.Options{ExactDecomposeLimit: 10}, problem.ModeImplicit},
		{"implicit", 2, problem.Options{}, problem.ModeImplicit},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(10 + ci)))
			seed := make(geom.WeightedSet, 60)
			for i := range seed {
				pt := make(geom.Point, tc.dim)
				for k := range pt {
					pt[k] = float64(rng.Intn(6))
				}
				seed[i] = geom.WeightedPoint{P: pt, Label: geom.Label(rng.Intn(2)), Weight: float64(1 + rng.Intn(4))}
			}
			p, err := problem.Prepare(seed, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if p.Mode() != tc.mode {
				t.Fatalf("prepared mode %v, want %v", p.Mode(), tc.mode)
			}
			want, err := p.Solve()
			if err != nil {
				t.Fatal(err)
			}
			u, err := NewUpdaterFromProblem(p, Config{RebuildEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			if u.WErr() != want.WErr {
				t.Fatalf("first werr %g, Problem.Solve %g", u.WErr(), want.WErr)
			}
			mirror := u.Live()
			if !reflect.DeepEqual(mirror, p.WeightedSet()) {
				t.Fatalf("live multiset %v, problem's %v", mirror, p.WeightedSet())
			}
			for step := 0; step < 40; step++ {
				mirror = traceStep(t, rng, u, mirror, tc.dim)
				checkExact(t, step, u, mirror, true)
			}
		})
	}
}

// TestNewUpdaterDenseGuard: an initial multiset one point past the
// exact limit goes through Prepare's route choice, so the first exact
// solve never materializes the n²/64 matrix. Sixteen diagonals at d=2,
// labelled by a threshold along them, keep the width low and leave
// nothing contending.
func TestNewUpdaterDenseGuard(t *testing.T) {
	const chains = 16
	n := problem.DefaultExactDecomposeLimit + 1
	initial := make(geom.WeightedSet, n)
	for i := range initial {
		tt, j := float64(i/chains), float64(i%chains)
		label := geom.Negative
		if tt >= float64(n/chains/2) {
			label = geom.Positive
		}
		initial[i] = geom.WeightedPoint{P: geom.Point{tt + j, tt + chains - j}, Label: label, Weight: 1}
	}
	want, err := problem.Solve(initial)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	u, err := NewUpdater(2, initial, Config{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 256 << 20
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc >= limit {
		t.Fatalf("NewUpdater over %d points allocated %d MiB, want < %d", n, alloc>>20, limit>>20)
	}
	t.Logf("NewUpdater over %d points allocated %d MiB", n, alloc>>20)
	if u.WErr() != want.WErr {
		t.Fatalf("werr %g, problem.Solve %g", u.WErr(), want.WErr)
	}
}

// TestInterimDriftBound runs the production policy (periodic rebuilds,
// interim grafts between them) and checks the drift invariant at every
// step: maintained werr equals a model rescore, never exceeds the
// retrain optimum plus DriftBound, and collapses to the exact optimum
// on Resolve.
func TestInterimDriftBound(t *testing.T) {
	const dim, steps = 3, 600
	rng := rand.New(rand.NewSource(2))
	u, err := NewUpdater(dim, nil, Config{RebuildEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	var mirror geom.WeightedSet
	for step := 0; step < steps; step++ {
		mirror = traceStep(t, rng, u, mirror, dim)
		if len(mirror) == 0 {
			continue
		}
		live := u.Live()
		if got := geom.WErr(live, u.Model().Classify); !almostEq(got, u.WErr()) {
			t.Fatalf("step %d: maintained werr %g, rescore %g", step, u.WErr(), got)
		}
		if step%11 == 0 {
			sol := retrain(t, mirror)
			if u.WErr() > sol.WErr+u.DriftBound()+1e-9 {
				t.Fatalf("step %d: werr %g exceeds k* %g + drift %g", step, u.WErr(), sol.WErr, u.DriftBound())
			}
		}
	}
	if err := u.Resolve(); err != nil {
		t.Fatal(err)
	}
	sol := retrain(t, mirror)
	if !almostEq(sol.WErr, u.WErr()) {
		t.Fatalf("after Resolve: werr %g, retrain %g", u.WErr(), sol.WErr)
	}
	s := u.Stats()
	if s.InterimAdoptions == 0 {
		t.Error("production policy never adopted an interim model")
	}
	if s.ExactSolves >= uint64(steps) {
		t.Errorf("RebuildEvery=8 ran %d exact solves over %d deltas", s.ExactSolves, steps)
	}
}

// TestMaxDriftForcesRebuild checks the weight-budget trigger: with a
// tiny MaxDrift every delta forces an exact solve even though
// RebuildEvery is huge.
func TestMaxDriftForcesRebuild(t *testing.T) {
	u, err := NewUpdater(2, nil, Config{RebuildEvery: 1 << 30, MaxDrift: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		err := u.Apply(Delta{Op: OpInsert, Point: geom.Point{float64(i), 1}, Label: geom.Positive, Weight: 1})
		if err != nil {
			t.Fatal(err)
		}
		if u.DriftBound() != 0 {
			t.Fatalf("delta %d: drift %g, want forced rebuild", i, u.DriftBound())
		}
	}
	if s := u.Stats(); s.ExactSolves < 10 {
		t.Errorf("MaxDrift ran only %d exact solves", s.ExactSolves)
	}
}

func TestUpdaterValidation(t *testing.T) {
	u, err := NewUpdater(2, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Delta{
		{Op: OpInsert, Point: geom.Point{1}, Label: geom.Positive, Weight: 1},             // wrong dim
		{Op: OpInsert, Point: geom.Point{1, math.NaN()}, Label: geom.Positive, Weight: 1}, // NaN coord
		{Op: OpInsert, Point: geom.Point{1, 2}, Label: 7, Weight: 1},                      // bad label
		{Op: OpInsert, Point: geom.Point{1, 2}, Label: geom.Positive, Weight: 0},          // zero weight
		{Op: OpInsert, Point: geom.Point{1, 2}, Label: geom.Positive, Weight: -3},         // negative
		{Op: OpInsert, Point: geom.Point{1, 2}, Label: geom.Positive, Weight: math.Inf(1)},
		{Op: OpInsert, Point: geom.Point{1, 2}, Label: geom.Positive, Weight: math.NaN()},
		{Op: Op(9), Point: geom.Point{1, 2}},              // unknown op
		{Op: OpDelete, Point: geom.Point{1}},              // wrong dim
		{Op: OpDelete, Point: geom.Point{1, 2}, Label: 5}, // bad label
	}
	for i, d := range bad {
		if err := u.Apply(d); err == nil {
			t.Errorf("bad delta %d accepted", i)
		}
	}
	if u.Live() != nil && len(u.Live()) != 0 {
		t.Error("rejected deltas mutated the live set")
	}
	// Delete of an absent (point, label) pair: ErrNotFound, and a
	// label mismatch is a miss even when the coordinates exist.
	if err := u.Apply(Delta{Op: OpInsert, Point: geom.Point{1, 2}, Label: geom.Positive, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := u.Apply(Delta{Op: OpDelete, Point: geom.Point{1, 2}, Label: geom.Negative}); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete with wrong label: %v, want ErrNotFound", err)
	}
	if err := u.Apply(Delta{Op: OpDelete, Point: geom.Point{9, 9}, Label: geom.Positive}); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete of absent point: %v, want ErrNotFound", err)
	}
	// NaN delete targets can never match (inserts reject NaN).
	if err := u.Apply(Delta{Op: OpDelete, Point: geom.Point{math.NaN(), 2}, Label: geom.Positive}); !errors.Is(err, ErrNotFound) {
		t.Errorf("NaN delete: %v, want ErrNotFound", err)
	}
}

// TestDuplicateFIFO inserts the same (point, label) twice with
// different weights and checks deletes consume occurrences FIFO.
func TestDuplicateFIFO(t *testing.T) {
	u, err := NewUpdater(1, nil, Config{RebuildEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{1}
	for _, w := range []float64{5, 3} {
		if err := u.Apply(Delta{Op: OpInsert, Point: p, Label: geom.Positive, Weight: w}); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Apply(Delta{Op: OpDelete, Point: p, Label: geom.Positive, Weight: 99}); err != nil {
		t.Fatal(err)
	}
	live := u.Live()
	if len(live) != 1 || live[0].Weight != 3 {
		t.Fatalf("after FIFO delete: %v, want the weight-3 copy", live)
	}
}

// TestEmptyAfterDeletes drains the multiset completely: werr drops to
// 0, the previous model keeps serving, and learning can resume.
func TestEmptyAfterDeletes(t *testing.T) {
	initial := geom.WeightedSet{
		{P: geom.Point{1, 1}, Label: geom.Positive, Weight: 2},
		{P: geom.Point{2, 2}, Label: geom.Negative, Weight: 1},
	}
	u, err := NewUpdater(2, initial, Config{RebuildEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if u.WErr() != 1 {
		t.Fatalf("initial werr %g, want 1", u.WErr())
	}
	for _, wp := range initial {
		if err := u.Apply(Delta{Op: OpDelete, Point: wp.P, Label: wp.Label}); err != nil {
			t.Fatal(err)
		}
	}
	if u.WErr() != 0 || len(u.Live()) != 0 {
		t.Fatalf("after draining: werr %g live %d", u.WErr(), len(u.Live()))
	}
	if u.Model() == nil {
		t.Fatal("model yanked on empty multiset")
	}
	if err := u.Apply(Delta{Op: OpInsert, Point: geom.Point{0, 0}, Label: geom.Positive, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if got := u.Model().Classify(geom.Point{5, 5}); got != geom.Positive {
		t.Fatalf("relearned model misclassifies: %v", got)
	}
}

// TestResolveNS: the summed exact re-solve time reads 0 before the
// first exact re-solve (an empty initial multiset solves nothing),
// grows with each one, and stays put across the deltas in between.
func TestResolveNS(t *testing.T) {
	u, err := NewUpdater(3, nil, Config{RebuildEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	last := u.Stats()
	if last.ResolveNS != 0 {
		t.Fatalf("resolve_ns %d before any exact re-solve", last.ResolveNS)
	}
	rng := rand.New(rand.NewSource(5))
	resolves := 0
	for step := 0; step < 30; step++ {
		p := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		if err := u.Apply(Delta{Op: OpInsert, Point: p, Label: geom.Label(rng.Intn(2)), Weight: 1}); err != nil {
			t.Fatal(err)
		}
		s := u.Stats()
		switch {
		case s.ExactSolves > last.ExactSolves:
			resolves++
			if s.ResolveNS <= last.ResolveNS {
				t.Fatalf("step %d: exact re-solve left resolve_ns at %d (was %d)", step, s.ResolveNS, last.ResolveNS)
			}
		case s.ResolveNS != last.ResolveNS:
			t.Fatalf("step %d: resolve_ns moved %d → %d with no exact re-solve", step, last.ResolveNS, s.ResolveNS)
		}
		last = s
	}
	if resolves != 10 {
		t.Fatalf("%d exact re-solves over 30 deltas at RebuildEvery 3", resolves)
	}
}

// TestPublishGate wires a rejecting publisher and checks rejections
// are counted while the internal model still advances.
func TestPublishGate(t *testing.T) {
	rejections := 0
	u, err := NewUpdater(1, nil, Config{
		RebuildEvery: 1,
		Publish: func(m *classifier.AnchorSet) error {
			rejections++
			return errors.New("audit says no")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Apply(Delta{Op: OpInsert, Point: geom.Point{1}, Label: geom.Positive, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	s := u.Stats()
	if s.PublishRejects == 0 || rejections == 0 {
		t.Fatalf("publish rejection not counted: stats=%+v calls=%d", s, rejections)
	}
	if got := u.Model().Classify(geom.Point{2}); got != geom.Positive {
		t.Error("internal model did not advance past a publish rejection")
	}
}

// TestNewUpdaterRejectsBadInitial covers constructor validation.
func TestNewUpdaterRejectsBadInitial(t *testing.T) {
	if _, err := NewUpdater(0, nil, Config{}); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := NewUpdater(2, nil, Config{RebuildEvery: -1}); err == nil {
		t.Error("negative RebuildEvery accepted")
	}
	if _, err := NewUpdater(2, nil, Config{MaxDrift: -1}); err == nil {
		t.Error("negative MaxDrift accepted")
	}
	bad := geom.WeightedSet{{P: geom.Point{math.NaN(), 1}, Label: geom.Positive, Weight: 1}}
	if _, err := NewUpdater(2, bad, Config{}); err == nil {
		t.Error("NaN initial point accepted")
	}
}
