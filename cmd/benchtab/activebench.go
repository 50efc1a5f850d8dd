package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"monoclass/internal/core"
	"monoclass/internal/geom"
	"monoclass/internal/oracle"
)

// activeRow is one -active row: the Theorem 2+3 pipeline
// (core.ActiveLearn with PracticalParams) on one problemWorkload set,
// run Repeats times from the same seed. Path, width, probes and |Σ|
// repeat exactly; the phase times and the bytes one run allocates
// (the runtime's TotalAlloc delta) are each a median with the range
// over the repeats.
type activeRow struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	Dim         int     `json:"dim"`
	Width       int     `json:"width"`
	Epsilon     float64 `json:"epsilon"`
	Delta       float64 `json:"delta"`
	Path        string  `json:"path"`
	ExactWidth  bool    `json:"exact_width"`
	Probes      int     `json:"probes"`
	Sigma       int     `json:"sigma"`
	CPUs        int     `json:"cpus"`
	Repeats     int     `json:"repeats"`
	DecomposeNs spread  `json:"decompose_ns"`
	ProbeNs     spread  `json:"probe_ns"`
	SolveNs     spread  `json:"solve_ns"`
	AllocBytes  spread  `json:"alloc_bytes"`
}

// spread is a median with the range of the samples around it.
type spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func spreadOf(xs []float64) spread {
	s := slices.Clone(xs)
	slices.Sort(s)
	return spread{Median: s[len(s)/2], Min: s[0], Max: s[len(s)-1]}
}

// activeReport is the machine-readable output of -active.
type activeReport struct {
	benchEnv
	Rows []activeRow `json:"rows"`
}

// runActiveBench times the active pipeline on problemWorkload's
// 16-chain sets at d=2 and d=3, up to n=262,144 (d=3 past the exact
// decomposition limit, on the greedy cover), writing the JSON report
// to path.
func runActiveBench(path string, seed int64, quick bool) error {
	type spec struct{ n, d int }
	specs := []spec{{16384, 2}, {16384, 3}, {65536, 2}, {65536, 3}, {262144, 3}}
	repeats := 5
	if quick {
		specs, repeats = []spec{{2048, 2}, {2048, 3}, {8192, 3}}, 3
	}
	const eps, delta, width = 0.5, 0.05, 16
	report := activeReport{benchEnv: newBenchEnv(seed)}
	for _, s := range specs {
		ws := problemWorkload(rand.New(rand.NewSource(seed)), s.n, s.d, width)
		pts := make([]geom.Point, len(ws))
		labels := make([]geom.Label, len(ws))
		for i, wp := range ws {
			pts[i], labels[i] = wp.P, wp.Label
		}
		row := activeRow{
			Name: fmt.Sprintf("Active/n%d_d%d", s.n, s.d), N: s.n, Dim: s.d,
			Epsilon: eps, Delta: delta, CPUs: runtime.GOMAXPROCS(0), Repeats: repeats,
		}
		var phases [4][]float64 // decompose, probe, solve ns; allocated bytes
		for r := 0; r < repeats; r++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := core.ActiveLearn(pts, oracle.NewStatic(labels), core.PracticalParams(eps, delta), rand.New(rand.NewSource(seed)))
			runtime.ReadMemStats(&after)
			if err != nil {
				return fmt.Errorf("active bench n=%d d=%d: %w", s.n, s.d, err)
			}
			row.Width, row.Path, row.ExactWidth = res.Width, res.Path, res.ExactWidth
			row.Probes, row.Sigma = res.Probes, len(res.Sigma)
			for k, x := range []float64{float64(res.Timing.Decompose), float64(res.Timing.Probe),
				float64(res.Timing.Solve), float64(after.TotalAlloc - before.TotalAlloc)} {
				phases[k] = append(phases[k], x)
			}
		}
		row.DecomposeNs, row.ProbeNs = spreadOf(phases[0]), spreadOf(phases[1])
		row.SolveNs, row.AllocBytes = spreadOf(phases[2]), spreadOf(phases[3])
		report.Rows = append(report.Rows, row)
		fmt.Printf("%-18s %-15s w %-3d probes %-6d |Σ| %-6d decompose %.1f ms probe %.1f ms solve %.1f ms alloc %.1f MiB\n",
			row.Name, row.Path, row.Width, row.Probes, row.Sigma, row.DecomposeNs.Median/1e6,
			row.ProbeNs.Median/1e6, row.SolveNs.Median/1e6, row.AllocBytes.Median/(1<<20))
	}
	return writeReport(path, report)
}
