package main

import (
	"fmt"
	"math/rand"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
)

// classifyConfig is one (query count, dimension, anchor count) cell of
// the -classify grid.
type classifyConfig struct {
	n, d, m int
}

// classifyReport is the machine-readable output of -classify: for each
// grid cell, the scalar anchor scan, the indexed per-point path, and
// the batch kernel, timed over the same query set. The speedup fields
// are what CI gates on: the indexed path must beat the scalar scan on
// the acceptance cell (n=4096, d=3).
type classifyReport struct {
	benchEnv
	Benchmarks []benchResult      `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
}

// benchAntichain draws m distinct points on the hyperplane of constant
// coordinate sum — pairwise incomparable by construction, so the
// anchor set survives pruning at full size and the index sees realistic
// antichain geometry. d=1 collapses to a single threshold anchor.
func benchAntichain(rng *rand.Rand, m, d int) []geom.Point {
	if d == 1 {
		return []geom.Point{{32}}
	}
	anchors := make([]geom.Point, m)
	for i := range anchors {
		p := make(geom.Point, d)
		sum := 0.0
		for k := 0; k < d-1; k++ {
			p[k] = rng.Float64() * 64
			sum += p[k]
		}
		p[d-1] = float64(32*(d-1)) - sum
		anchors[i] = p
	}
	return anchors
}

// runClassifyBench times scalar vs indexed vs batch classification
// across the (n, d, anchors) grid and writes the JSON report to path.
func runClassifyBench(path string, seed int64, quick bool) error {
	minTime, minIters := 1*time.Second, 3
	configs := []classifyConfig{
		{4096, 1, 1},   // threshold fast path
		{4096, 2, 256}, // staircase fast path
		{4096, 3, 16},  // tiny flat scan
		{4096, 3, 256}, // bit matrix, the acceptance cell
		{4096, 5, 512}, // bit matrix, higher dimension
		{64, 3, 256},   // serving-sized micro-batch
	}
	if quick {
		minTime, minIters = 100*time.Millisecond, 2
		configs = []classifyConfig{{512, 2, 64}, {512, 3, 64}, {32, 3, 64}}
	}

	rng := rand.New(rand.NewSource(seed))
	report := classifyReport{
		benchEnv: newBenchEnv(seed),
		Speedups: make(map[string]float64),
	}

	add := func(name string, fn func()) benchResult {
		r := timeIt(minTime, minIters, fn)
		r.Name = name
		report.Benchmarks = append(report.Benchmarks, r)
		fmt.Printf("%-40s %12d ns/op  (%d iters)\n", name, int64(r.NsPerOp), r.Iterations)
		return r
	}

	for _, cfg := range configs {
		h, err := classifier.NewAnchorSet(cfg.d, benchAntichain(rng, cfg.m, cfg.d))
		if err != nil {
			return err
		}
		m := len(h.Anchors())
		queries := make([]geom.Point, cfg.n)
		for i := range queries {
			p := make(geom.Point, cfg.d)
			for k := range p {
				p[k] = rng.Float64() * 64
			}
			queries[i] = p
		}
		dst := make([]geom.Label, cfg.n)

		// The three paths must agree before they are worth timing.
		h.ClassifyBatchInto(dst, queries)
		for i, q := range queries {
			if dst[i] != h.ClassifyScalar(q) || h.Classify(q) != h.ClassifyScalar(q) {
				return fmt.Errorf("classify bench: paths diverge at n=%d d=%d m=%d query %d", cfg.n, cfg.d, m, i)
			}
		}

		tag := fmt.Sprintf("n%d_d%d_m%d", cfg.n, cfg.d, m)
		scalar := add("Classify/scalar/"+tag, func() {
			for _, q := range queries {
				h.ClassifyScalar(q)
			}
		})
		indexed := add("Classify/indexed/"+tag, func() {
			for _, q := range queries {
				h.Classify(q)
			}
		})
		batch := add("Classify/batch/"+tag, func() {
			h.ClassifyBatchInto(dst, queries)
		})
		report.Speedups["indexed_"+tag] = scalar.NsPerOp / indexed.NsPerOp
		report.Speedups["batch_"+tag] = scalar.NsPerOp / batch.NsPerOp
		fmt.Printf("speedup %-32s indexed %.2fx, batch %.2fx\n", tag,
			report.Speedups["indexed_"+tag], report.Speedups["batch_"+tag])
	}

	return writeReport(path, report)
}
