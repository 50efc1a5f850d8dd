package main

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
	"monoclass/internal/problem"
)

// maxflowReport is the machine-readable output of -maxflow: per-solver
// timings, the engine's speedup over the Dinic reference on the
// largest passive-construction network, and the workspace re-solve
// allocation count, which must be 0.
type maxflowReport struct {
	benchEnv
	Benchmarks []benchResult      `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
	// WorkspaceResolveAllocs is testing.AllocsPerRun for a
	// Reset+SolveWith cycle on the largest passive network; the
	// steady-state contract is exactly 0.
	WorkspaceResolveAllocs float64 `json:"workspace_resolve_allocs_per_op"`
}

// benchWeightedSet builds the same Problem-2 instance family the
// experiment harness uses: planted monotone labels with noise and
// random integer weights.
func benchWeightedSet(rng *rand.Rand, n int) geom.WeightedSet {
	lab := dataset.Planted(rng, dataset.PlantedParams{N: n, D: 2, Noise: 0.2})
	ws := make(geom.WeightedSet, len(lab))
	for i, lp := range lab {
		ws[i] = geom.WeightedPoint{P: lp.P, Label: lp.Label, Weight: float64(1 + rng.Intn(9))}
	}
	return ws
}

// layeredNetwork builds a worst-case layered flow instance: layers of
// width w connected by random forward edges, so Dinic needs many
// phases and push-relabel floods excess deep into the graph.
func layeredNetwork(rng *rand.Rand, layers, width int) *maxflow.Network {
	n := 2 + layers*width
	src, snk := 0, 1
	vtx := func(l, i int) int { return 2 + l*width + i }
	g := maxflow.New(n, src, snk)
	for i := 0; i < width; i++ {
		g.AddEdge(src, vtx(0, i), float64(1+rng.Intn(100)))
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			// One structured edge keeps the graph connected; two random
			// edges make the level graph irregular across phases.
			g.AddEdge(vtx(l, i), vtx(l+1, i), float64(1+rng.Intn(100)))
			for k := 0; k < 2; k++ {
				g.AddEdge(vtx(l, i), vtx(l+1, rng.Intn(width)), float64(1+rng.Intn(100)))
			}
		}
	}
	for i := 0; i < width; i++ {
		g.AddEdge(vtx(layers-1, i), snk, float64(1+rng.Intn(100)))
	}
	return g
}

// bottleneckChain is the preflow worst case from the workspace tests,
// scaled up: a long wide-capacity chain with a unit outlet, so almost
// all of the initial preflow must drain back to the source — the
// workload that global relabeling exists for.
func bottleneckChain(k int) *maxflow.Network {
	g := maxflow.New(k+2, 0, k+1)
	g.AddEdge(0, 1, 1000)
	for v := 1; v < k; v++ {
		g.AddEdge(v, v+1, 1000)
	}
	g.AddEdge(k, k+1, 1)
	return g
}

// runMaxflowBench times every registered max-flow solver on
// passive-construction networks (the Theorem 4 workload) and on
// synthetic worst-case families, writing the JSON report to path.
func runMaxflowBench(path string, seed int64, quick bool) error {
	passiveNs := []int{1024, 4096}
	layers, width := 64, 48
	chainK := 2048
	minTime, minIters := time.Second, 3
	if quick {
		passiveNs = []int{256, 1024}
		layers, width = 16, 16
		chainK = 256
		minTime, minIters = 100*time.Millisecond, 2
	}

	rng := rand.New(rand.NewSource(seed))
	report := maxflowReport{
		benchEnv: newBenchEnv(seed),
		Speedups: make(map[string]float64),
	}

	type instance struct {
		name string
		g    *maxflow.Network
	}
	var instances []instance
	var largestPassive *maxflow.Network
	for _, n := range passiveNs {
		p, err := problem.Prepare(benchWeightedSet(rng, n), problem.Options{})
		if err != nil {
			return err
		}
		g := p.Network()
		if g == nil {
			return fmt.Errorf("maxflow bench: passive instance n=%d has no contending points", n)
		}
		instances = append(instances, instance{fmt.Sprintf("passive/n=%d", n), g})
		largestPassive = g
	}
	instances = append(instances,
		instance{fmt.Sprintf("layered/%dx%d", layers, width), layeredNetwork(rng, layers, width)},
		instance{fmt.Sprintf("bottleneck-chain/k=%d", chainK), bottleneckChain(chainK)},
	)

	impls := maxflow.Solvers()
	perSolver := make(map[string]map[string]float64) // instance -> solver -> ns/op
	var benchSink float64
	for _, inst := range instances {
		perSolver[inst.name] = make(map[string]float64)
		want := math.NaN()
		for _, sname := range maxflow.SolverNames() {
			solve := impls[sname]
			g := inst.g
			r := timeIt(minTime, minIters, func() {
				g.Reset()
				benchSink = solve(g).Value
			})
			r.Name = inst.name + "/" + sname
			report.Benchmarks = append(report.Benchmarks, r)
			perSolver[inst.name][sname] = r.NsPerOp
			fmt.Printf("%-44s %12d ns/op  (%d iters)\n", r.Name, int64(r.NsPerOp), r.Iterations)
			if math.IsNaN(want) {
				want = benchSink
			} else if math.Abs(benchSink-want) > 1e-6 {
				return fmt.Errorf("maxflow bench: %s value %g disagrees with %g on %s",
					sname, benchSink, want, inst.name)
			}
		}
	}

	// Headline: the engine vs the Dinic reference on the largest
	// passive-construction instance.
	big := fmt.Sprintf("passive/n=%d", passiveNs[len(passiveNs)-1])
	report.Speedups["pushrelabelhl_vs_dinic"] =
		perSolver[big]["dinic"] / perSolver[big]["pushrelabelhl"]

	// Steady-state allocation contract: Reset + SolveWith on a warm
	// workspace must not touch the allocator at all.
	hlws := maxflow.NewWorkspace()
	maxflow.SolveWith(hlws, largestPassive)
	report.WorkspaceResolveAllocs = testing.AllocsPerRun(20, func() {
		largestPassive.Reset()
		maxflow.SolveWith(hlws, largestPassive)
	})

	fmt.Printf("speedup %-32s %.2fx\n", "pushrelabelhl_vs_dinic:", report.Speedups["pushrelabelhl_vs_dinic"])
	fmt.Printf("workspace re-solve allocs/op:            %g\n", report.WorkspaceResolveAllocs)

	return writeReport(path, report)
}
