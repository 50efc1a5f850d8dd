package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"monoclass"
	"monoclass/internal/chains"
	"monoclass/internal/classifier"
	"monoclass/internal/domgraph"
	"monoclass/internal/maxflow"
	"monoclass/internal/problem"
)

// trainSet is one of a run's training sets: its CSV bytes and the
// oracle's weighted error on it.
type trainSet struct {
	csv        []byte
	oracleWErr float64
}

// trainSets draws the run's training sets from the seed, encodes each
// as CSV and solves its oracle. It also returns the first set, parsed,
// and its oracle's model, which the server serves.
func trainSets(w workload, seed int64) ([]trainSet, monoclass.WeightedSet, *classifier.AnchorSet, error) {
	var sets []trainSet
	var first monoclass.WeightedSet
	var model *classifier.AnchorSet
	for k := range numTrainSets {
		var buf bytes.Buffer
		if err := monoclass.WriteCSV(&buf, w.gen(rngFor(seed, streamTrain+k), w.n)); err != nil {
			return nil, nil, nil, fmt.Errorf("write csv: %w", err)
		}
		ws, err := monoclass.ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("read csv: %w", err)
		}
		sol, err := oracleSolve(ws)
		if err != nil {
			return nil, nil, nil, err
		}
		sets = append(sets, trainSet{csv: buf.Bytes(), oracleWErr: sol.WErr})
		if k == 0 {
			first, model = ws, sol.Classifier
		}
	}
	return sets, first, model, nil
}

// oracleSolve solves the prepared problem with Dinic's algorithm, the
// max-flow reference kept beside the default push-relabel engine; the
// benchmark's trains must reach the same optimal weighted error.
func oracleSolve(ws monoclass.WeightedSet) (monoclass.PassiveSolution, error) {
	p, err := monoclass.PrepareProblem(ws, monoclass.ProblemOptions{})
	if err != nil {
		return monoclass.PassiveSolution{}, fmt.Errorf("oracle prepare: %w", err)
	}
	sol, err := p.SolveWith(problem.SolveOptions{Solver: maxflow.Dinic})
	if err != nil {
		return monoclass.PassiveSolution{}, fmt.Errorf("oracle solve: %w", err)
	}
	return sol, nil
}

func sameWErr(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// checkTrain is the training gate: the trained model's reported
// weighted error equals the oracle's, and rescoring the model over the
// training set reproduces it.
func checkTrain(ws monoclass.WeightedSet, sol monoclass.PassiveSolution, oracleWErr float64) error {
	if !sameWErr(sol.WErr, oracleWErr) {
		return fmt.Errorf("trained werr %g, oracle (dinic) werr %g", sol.WErr, oracleWErr)
	}
	if got := monoclass.WErr(ws, sol.Classifier); !sameWErr(got, sol.WErr) {
		return fmt.Errorf("model rescored to werr %g, solver reported %g", got, sol.WErr)
	}
	return nil
}

// trained is what one train leaves behind: the parsed set, the
// prepared problem and the solution.
type trained struct {
	ws  monoclass.WeightedSet
	p   *monoclass.Problem
	sol monoclass.PassiveSolution
}

// train runs the user-facing training path once: CSV bytes →
// ReadCSV → PrepareProblem → TrainPrepared.
func train(csv []byte) (trained, error) {
	var t trained
	var err error
	if t.ws, err = monoclass.ReadCSV(bytes.NewReader(csv)); err != nil {
		return t, fmt.Errorf("read csv: %w", err)
	}
	if t.p, err = monoclass.PrepareProblem(t.ws, monoclass.ProblemOptions{}); err != nil {
		return t, fmt.Errorf("prepare: %w", err)
	}
	if t.sol, err = monoclass.TrainPrepared(t.p); err != nil {
		return t, fmt.Errorf("train: %w", err)
	}
	return t, nil
}

// liveHeap collects garbage and returns the heap's object bytes, which
// are then exactly the live heap. Freed memory goes back to the
// operating system, so every train starts from the same state instead
// of reusing whatever pages the scavenger has not yet returned.
func liveHeap() uint64 {
	debug.FreeOSMemory()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// trainResult holds one run's untraced training measurements.
type trainResult struct {
	wall    [][]float64 // seconds per train, by training set
	cpu     [][]float64 // CPU seconds per train, by training set
	heapMiB []float64   // live heap the first train of each set leaves behind
	tally   tally
	errs    []error
}

// trainPhase retrains from CSV at least once, and again while another
// train as long as the last one still fits in budget, gating every
// model against its set's oracle. Trains take the run's training sets
// in turn, going on from where the previous phase stopped. The run's
// first train of each set also records the live heap it leaves behind;
// later trains skip that collection, so more trains fit in the budget.
func trainPhase(st *state, r *trainResult, budget time.Duration) {
	start := time.Now()
	var last time.Duration
	for sent := 0; sent == 0 || time.Since(start)+last <= budget; sent++ {
		k := r.tally.sent % len(st.sets)
		first := r.tally.sent < len(st.sets)
		base := liveHeap()
		c0, t0 := cpuTime(), time.Now()
		t, err := train(st.sets[k].csv)
		wall, cpu := time.Since(t0), cpuTime()-c0
		// A sampled peak swings with where the collector happens to run;
		// the live heap after training is the same on every run.
		var held uint64
		if first {
			held = liveHeap() - base
		}
		runtime.KeepAlive(t)
		last = wall
		r.tally.sent++
		if err == nil {
			err = checkTrain(t.ws, t.sol, st.sets[k].oracleWErr)
		}
		if err != nil {
			r.tally.failed++
			r.errs = append(r.errs, err)
			continue
		}
		r.tally.ok++
		r.wall[k] = append(r.wall[k], wall.Seconds())
		r.cpu[k] = append(r.cpu[k], cpu.Seconds())
		if first {
			r.heapMiB = append(r.heapMiB, float64(held)/(1<<20))
		}
	}
}

// layerSpans is one traced train, timed call by call from outside the
// program. The dominance build and the decomposition are timed as
// separate calls on the same points (Prepare runs them again
// internally); the network build is Prepare's self time.
type layerSpans struct {
	parse, domgraph, decompose, prepare, solve, resolve, indexBuild time.Duration
	statsNetwork                                                    time.Duration // Prepare's own network-stage timer, as a cross-check
	width, augmentations, contending, edges, anchors                int
}

// network is Prepare's self time: its span minus the two layers it
// calls first.
func (s layerSpans) network() time.Duration { return s.prepare - s.domgraph - s.decompose }

// tracedTrain runs the training path once on set with a span around
// each layer, and gates the result like an untraced train.
func tracedTrain(set trainSet) (layerSpans, error) {
	var s layerSpans
	t0 := time.Now()
	ws, err := monoclass.ReadCSV(bytes.NewReader(set.csv))
	s.parse = time.Since(t0)
	if err != nil {
		return s, fmt.Errorf("read csv: %w", err)
	}

	t0 = time.Now()
	p, err := monoclass.PrepareProblem(ws, monoclass.ProblemOptions{})
	s.prepare = time.Since(t0)
	if err != nil {
		return s, fmt.Errorf("prepare: %w", err)
	}
	ps := p.Stats()
	s.statsNetwork = time.Duration(ps.NetworkNS)
	s.width, s.augmentations = p.Width(), ps.Augmentations
	s.contending, s.edges = p.NumContending(), p.NumEdges()

	// The same layer calls Prepare makes for the modes these
	// workloads resolve to (dense, or implicit at d ≤ 2).
	pts := p.Points()
	var m *domgraph.Matrix
	t0 = time.Now()
	switch p.Mode() {
	case problem.ModeDense:
		m = domgraph.Build(pts)
	case problem.ModeImplicit:
		domgraph.NewImplicit(pts)
	default:
		return s, fmt.Errorf("prepare chose %v mode, which the trace does not model", p.Mode())
	}
	s.domgraph = time.Since(t0)
	t0 = time.Now()
	if p.Dim() <= 2 {
		chains.Decompose(pts)
	} else {
		if m == nil {
			return s, fmt.Errorf("d=%d decomposition needs the dense matrix", p.Dim())
		}
		chains.DecomposeMatrixStats(pts, m)
	}
	s.decompose = time.Since(t0)

	t0 = time.Now()
	sol, err := p.Solve()
	s.solve = time.Since(t0)
	if err != nil {
		return s, fmt.Errorf("solve: %w", err)
	}
	t0 = time.Now()
	if _, err := p.Solve(); err != nil {
		return s, fmt.Errorf("re-solve: %w", err)
	}
	s.resolve = time.Since(t0)

	anchors := sol.Classifier.Anchors()
	t0 = time.Now()
	if _, err := classifier.NewAnchorSet(p.Dim(), anchors); err != nil {
		return s, fmt.Errorf("index build: %w", err)
	}
	s.indexBuild = time.Since(t0)
	s.anchors = len(anchors)
	return s, checkTrain(ws, sol, set.oracleWErr)
}
