// Command benchtab regenerates every experiment table of the
// reproduction (DESIGN.md §2.2): the two worked-figure checks F1/F2
// and the theorem-level experiments E1–E10, printed as markdown.
//
// Usage:
//
//	benchtab [-quick] [-seed N] [-only E1,E4,F1] [-cpuprofile FILE] [-memprofile FILE]
//	benchtab -maxflow FILE
//	benchtab -classify FILE
//	benchtab -online FILE
//	benchtab -problem FILE
//	benchtab -active FILE
//	benchtab -conformance [-trials N] [-long] [-repro-dir DIR]
//
// The full run takes a few minutes; -quick shrinks workloads to
// seconds for smoke testing. -maxflow skips the experiment tables and
// instead times the flow-solver engine — every registered solver on
// passive-construction networks and worst-case flow families, plus the
// workspace zero-allocation re-solve check — writing a machine-readable
// JSON report to FILE (see runMaxflowBench). -classify times the anchor
// classifier's scalar scan against the indexed and batch-kernel paths
// across a (queries, dimension, anchors) grid (see runClassifyBench).
// -online times the incremental learner's amortized per-delta cost —
// exact (rebuild every delta) and lazy (rebuild every 64) — against
// full retrains over the same insert/delete trace (see runOnlineBench).
// -problem sweeps the prepared-problem lifecycle — prepare, first
// solve, warm re-solve, peak and retained memory — across n up to 10⁶
// under default options, one row per (n, d, shape) (see
// runProblemBench). -active times the active pipeline (Theorems 2+3)
// phase by phase on the same 16-chain sets at d=2 and d=3, five
// repeats a row (see runActiveBench).
// -conformance runs the
// differential/metamorphic
// engine (internal/conformance) and exits non-zero on any divergence,
// leaving shrunken repro files in -repro-dir; replay one with
// `go test ./internal/conformance -run TestReplayRepros`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"monoclass/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-scale workloads")
	seed := flag.Int64("seed", 1, "random seed (tables are reproducible per seed)")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	maxflowOut := flag.String("maxflow", "", "write max-flow solver benchmark JSON to this file and exit")
	classifyOut := flag.String("classify", "", "write classifier index benchmark JSON to this file and exit")
	onlineOut := flag.String("online", "", "write online incremental-vs-retrain benchmark JSON to this file and exit")
	problemOut := flag.String("problem", "", "write prepared-problem lifecycle benchmark JSON to this file and exit")
	activeOut := flag.String("active", "", "write active-pipeline benchmark JSON to this file and exit")
	conf := flag.Bool("conformance", false, "run the differential/metamorphic conformance engine and exit")
	trials := flag.Int("trials", 200, "conformance trials (with -conformance)")
	long := flag.Bool("long", false, "conformance soak mode: larger instance schedule (with -conformance)")
	reproDir := flag.String("repro-dir", "internal/conformance/testdata", "directory for shrunken divergence repros (with -conformance)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			}
		}()
	}

	if *conf {
		if err := runConformance(*seed, *trials, *long, *reproDir); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *maxflowOut != "" {
		if err := runMaxflowBench(*maxflowOut, *seed, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *classifyOut != "" {
		if err := runClassifyBench(*classifyOut, *seed, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *onlineOut != "" {
		if err := runOnlineBench(*onlineOut, *seed, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *problemOut != "" {
		if err := runProblemBench(*problemOut, *seed, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *activeOut != "" {
		if err := runActiveBench(*activeOut, *seed, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	ids := experiments.IDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
	}

	fmt.Printf("# monoclass experiment tables (seed=%d, quick=%v)\n\n", *seed, *quick)
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		tab, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(tab.Markdown())
		fmt.Printf("_(generated in %s)_\n\n", time.Since(start).Round(time.Millisecond))
	}
}
