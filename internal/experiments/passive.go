package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"monoclass/internal/core"
	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
	"monoclass/internal/oracle"
	"monoclass/internal/passive"
	"monoclass/internal/problem"
)

// randomWeightedSet builds a Problem-2 instance from the planted
// generator with random integer weights.
func randomWeightedSet(rng *rand.Rand, n int, noise float64) geom.WeightedSet {
	lab := dataset.Planted(rng, dataset.PlantedParams{N: n, D: 2, Noise: noise})
	ws := make(geom.WeightedSet, len(lab))
	for i, lp := range lab {
		ws[i] = geom.WeightedPoint{P: lp.P, Label: lp.Label, Weight: float64(1 + rng.Intn(9))}
	}
	return ws
}

// solveLiteral solves the paper's literal Section 5.1 network, one ∞
// edge per dominating pair.
func solveLiteral(ws geom.WeightedSet) passive.Solution {
	pp, err := passive.PrepareLiteral(ws)
	if err != nil {
		panic(err)
	}
	sol, err := pp.Resolve(nil)
	if err != nil {
		panic(err)
	}
	return sol
}

// PassiveRuntime is E5: the Theorem 4 solver runs in polynomial time
// while the naive subset-enumeration solver explodes exponentially;
// both agree exactly where the naive solver can run.
func PassiveRuntime(cfg Config) Table {
	flowSizes := []int{500, 1000, 2000, 4000, 8000}
	naiveSizes := []int{10, 14, 18, 20}
	if cfg.Quick {
		flowSizes = []int{500, 1000}
		naiveSizes = []int{10, 14}
	}
	t := Table{
		ID:      "E5",
		Title:   "passive solver runtime: Theorem 4 (flow, sparse vs dense graph) vs naive 2^n enumeration",
		Columns: []string{"n", "flow (sparse)", "flow (dense)", "naive", "agree"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 5))

	// Head-to-head on small instances.
	for _, n := range naiveSizes {
		ws := randomWeightedSet(rng, n, 0.3)
		start := time.Now()
		flow := mustSolve(ws)
		flowTime := time.Since(start)
		start = time.Now()
		dense := solveLiteral(ws)
		denseTime := time.Since(start)
		start = time.Now()
		naive, err := passive.NaiveSolve(ws)
		if err != nil {
			panic(err)
		}
		naiveTime := time.Since(start)
		agree := "yes"
		if flow.WErr != naive.WErr || dense.WErr != naive.WErr {
			agree = fmt.Sprintf("NO (%g/%g vs %g)", flow.WErr, dense.WErr, naive.WErr)
		}
		t.Rows = append(t.Rows, []string{
			fmtInt(n), flowTime.String(), denseTime.String(), naiveTime.String(), agree,
		})
	}
	// Flow solver at scale: the sparse graph everywhere, the literal
	// dense graph as far as it is practical.
	for _, n := range flowSizes {
		ws := randomWeightedSet(rng, n, 0.1)
		start := time.Now()
		sparse := mustSolve(ws)
		sparseTime := time.Since(start)
		denseTime := "-"
		agree := "-"
		if n <= 4000 {
			start = time.Now()
			dense := solveLiteral(ws)
			denseTime = time.Since(start).String()
			agree = "yes"
			if dense.WErr != sparse.WErr {
				agree = fmt.Sprintf("NO (%g vs %g)", sparse.WErr, dense.WErr)
			}
		}
		t.Rows = append(t.Rows, []string{fmtInt(n), sparseTime.String(), denseTime, "-", agree})
	}
	t.Notes = append(t.Notes,
		"Claim (Thm 4): Problem 2 solves in O(dn²) + T_maxflow(n); the naive solver (§1.2) is exponential and already struggles near n=20.",
		"'dense' is the paper's literal construction (one ∞ edge per dominating pair, Θ(n²), passive.PrepareLiteral); 'sparse' is the prepare-and-solve path every caller uses (problem.Solve), whose equivalent O(m·w)-edge reachability network is built in internal/passive/sparse.go. Optima always agree.",
	)
	return t
}

// MaxflowSolvers is E9: every registered max-flow implementation
// agrees on the passive-classification networks, with the expected
// performance ordering.
func MaxflowSolvers(cfg Config) Table {
	sizes := []int{1000, 2000, 4000}
	if cfg.Quick {
		sizes = []int{500, 1000}
	}
	names := maxflow.SolverNames()
	impls := maxflow.Solvers()
	t := Table{
		ID:      "E9",
		Title:   "max-flow solver comparison on passive-classification instances",
		Columns: append(append([]string{"n"}, names...), "values agree"),
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	for _, n := range sizes {
		p, err := problem.Prepare(randomWeightedSet(rng, n, 0.2), problem.Options{})
		if err != nil {
			panic(err)
		}
		times := make([]time.Duration, len(names))
		vals := make([]float64, len(names))
		for i, name := range names {
			start := time.Now()
			sol, err := p.SolveWith(problem.SolveOptions{Solver: impls[name]})
			if err != nil {
				panic(err)
			}
			times[i] = time.Since(start)
			vals[i] = sol.WErr
		}
		agree := "yes"
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				agree = fmt.Sprintf("NO %v", vals)
			}
		}
		row := []string{fmtInt(n)}
		for _, d := range times {
			row = append(row, d.String())
		}
		t.Rows = append(t.Rows, append(row, agree))
	}
	t.Notes = append(t.Notes,
		"Claim (§2): any max-flow algorithm serves Theorem 4; the paper cites Goldberg–Tarjan push-relabel at O(V³). All registered implementations must return identical optima.",
		"Times are one solve of the same prepared network, including the cut decode. pushrelabelhl (highest-label + global relabeling on the CSR arc pool, DESIGN.md §8) is the engine and the default, on a pooled workspace; dinic is the independent reference.",
	)
	return t
}

// EndToEndPhases is E10: Theorem 3's cost decomposition — chain
// decomposition, probing, passive solve on Σ — measured per phase.
func EndToEndPhases(cfg Config) Table {
	sizes := []int{20000, 60000, 120000}
	if cfg.Quick {
		sizes = []int{10000, 20000}
	}
	const (
		w   = 8
		eps = 0.5
	)
	t := Table{
		ID:      "E10",
		Title:   fmt.Sprintf("end-to-end phase timing (w=%d, ε=%g)", w, eps),
		Columns: []string{"n", "decompose", "probe", "solve(Σ)", "|Σ| (coalesced)", "probes"},
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		lab := dataset.WidthControlled(rng, dataset.WidthParams{N: n, W: w, Noise: 0.05})
		pts := make([]geom.Point, len(lab))
		for i, lp := range lab {
			pts[i] = lp.P
		}
		in := oracle.InstrumentLabeled(lab)
		res, err := core.ActiveLearn(pts, in.O, core.PracticalParams(eps, 0.05), rng)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmtInt(n),
			res.Timing.Decompose.String(),
			res.Timing.Probe.String(),
			res.Timing.Solve.String(),
			fmtInt(len(res.Sigma)),
			fmtInt(res.Probes),
		})
	}
	t.Notes = append(t.Notes,
		"Claim (Thm 3): total CPU is Õ(dn² + n^2.5 + w/ε²) + T_prob2(d, N) with N = |Σ| ≪ n; the passive solve runs on the small sample, not the input.",
		"The 2-D decomposition fast path runs in O(n log n); the generic Lemma 6 construction is measured separately in E8.",
	)
	return t
}
