package experiments

import (
	"fmt"
	"math/rand"

	"monoclass/internal/baselines"
	"monoclass/internal/core"
	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/oracle"
	"monoclass/internal/stats"
)

// activeRun executes the core active algorithm once on a labeled set
// and reports (distinct probes, error of the returned classifier).
func activeRun(lab []geom.LabeledPoint, eps float64, rng *rand.Rand) (probes int, errP int, err error) {
	pts := make([]geom.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	in := oracle.InstrumentLabeled(lab)
	res, e := core.ActiveLearn(pts, in.O, core.PracticalParams(eps, 0.05), rng)
	if e != nil {
		return 0, 0, e
	}
	return in.DistinctProbes(), geom.Err(lab, res.Classifier.Classify), nil
}

// ProbingVsN is E1: Theorem 2's probing cost grows polylogarithmically
// in n at fixed width and ε, against the Θ(n) FullProbe baseline.
func ProbingVsN(cfg Config) Table {
	sizes := []int{8000, 16000, 32000, 64000, 128000}
	trials := 3
	if cfg.Quick {
		sizes = []int{4000, 8000}
		trials = 1
	}
	const (
		w   = 8
		eps = 0.5
	)
	t := Table{
		ID:      "E1",
		Title:   fmt.Sprintf("active probing cost vs n (w=%d, ε=%g, noise=0.05)", w, eps),
		Columns: []string{"n", "probes (mean)", "probes/n", "FullProbe"},
	}
	var ns, ps []float64
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		var probeCounts []float64
		for trial := 0; trial < trials; trial++ {
			lab := dataset.WidthControlled(rng, dataset.WidthParams{N: n, W: w, Noise: 0.05})
			probes, _, err := activeRun(lab, eps, rng)
			if err != nil {
				panic(err)
			}
			probeCounts = append(probeCounts, float64(probes))
		}
		mean := stats.Mean(probeCounts)
		ns = append(ns, float64(n))
		ps = append(ps, mean)
		t.Rows = append(t.Rows, []string{
			fmtInt(n), fmtF(mean), fmtF(mean / float64(n)), fmtInt(n),
		})
	}
	slope := stats.LogLogSlope(ns, ps)
	t.Notes = append(t.Notes,
		"Claim (Thm 2): probes = O((w/ε²)·log n·log(n/w)) — polylog in n, so probes/n must fall towards 0 while FullProbe stays Θ(n).",
		fmt.Sprintf("Fitted log-log slope of probes vs n: %.2f (1.0 would be linear; polylog growth fits well below 0.5 at scale).", slope),
	)
	return t
}

// ProbingVsWidth is E2: probing cost scales with the dominance width w
// at fixed n and ε.
func ProbingVsWidth(cfg Config) Table {
	widths := []int{2, 4, 8, 16, 32}
	n := 120000
	trials := 3
	if cfg.Quick {
		widths = []int{2, 4, 8}
		n = 20000
		trials = 1
	}
	const eps = 1.0
	t := Table{
		ID:      "E2",
		Title:   fmt.Sprintf("active probing cost vs dominance width w (n=%d, ε=%g)", n, eps),
		Columns: []string{"w", "probes (mean)", "probes/w"},
	}
	var wsX, ps []float64
	for _, w := range widths {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
		var probeCounts []float64
		for trial := 0; trial < trials; trial++ {
			lab := dataset.WidthControlled(rng, dataset.WidthParams{N: n, W: w, Noise: 0.05})
			probes, _, err := activeRun(lab, eps, rng)
			if err != nil {
				panic(err)
			}
			probeCounts = append(probeCounts, float64(probes))
		}
		mean := stats.Mean(probeCounts)
		wsX = append(wsX, float64(w))
		ps = append(ps, mean)
		t.Rows = append(t.Rows, []string{fmtInt(w), fmtF(mean), fmtF(mean / float64(w))})
	}
	t.Notes = append(t.Notes,
		"Claim (Thm 2): probes grow linearly in w (each chain pays its own polylog sample); probes/w should be near-flat, dipping slightly as chains shorten (log(n/w) factor).",
		fmt.Sprintf("Fitted log-log slope of probes vs w: %.2f (1.0 = exactly linear).", stats.LogLogSlope(wsX, ps)),
	)
	return t
}

// ProbingVsEpsilon is E3: probing cost scales as 1/ε².
func ProbingVsEpsilon(cfg Config) Table {
	epss := []float64{1, 0.7, 0.5, 0.35, 0.25}
	n := 120000
	trials := 3
	if cfg.Quick {
		epss = []float64{1, 0.5}
		n = 20000
		trials = 1
	}
	const w = 4
	t := Table{
		ID:      "E3",
		Title:   fmt.Sprintf("active probing cost vs ε (n=%d, w=%d)", n, w),
		Columns: []string{"ε", "probes (mean)", "probes·ε²"},
	}
	var invEps, ps []float64
	for _, eps := range epss {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(eps*1000)))
		var probeCounts []float64
		for trial := 0; trial < trials; trial++ {
			lab := dataset.WidthControlled(rng, dataset.WidthParams{N: n, W: w, Noise: 0.05})
			probes, _, err := activeRun(lab, eps, rng)
			if err != nil {
				panic(err)
			}
			probeCounts = append(probeCounts, float64(probes))
		}
		mean := stats.Mean(probeCounts)
		invEps = append(invEps, 1/eps)
		ps = append(ps, mean)
		t.Rows = append(t.Rows, []string{fmtF(eps), fmtF(mean), fmtF(mean * eps * eps)})
	}
	t.Notes = append(t.Notes,
		"Claim (Thm 2): probes ∝ 1/ε², so probes·ε² should be near-constant until the exhaustive cap (probes ≤ n) bites.",
		fmt.Sprintf("Fitted log-log slope of probes vs 1/ε: %.2f (2.0 = exactly quadratic).", stats.LogLogSlope(invEps, ps)),
	)
	return t
}

// ApproximationQuality is E4: the returned classifier's error stays
// within (1+ε)·k* with high probability across noise levels.
func ApproximationQuality(cfg Config) Table {
	noises := []float64{0.05, 0.1, 0.2}
	n := 6000
	trials := 15
	if cfg.Quick {
		noises = []float64{0.1}
		n = 2000
		trials = 4
	}
	const (
		w   = 5
		eps = 0.5
	)
	t := Table{
		ID:      "E4",
		Title:   fmt.Sprintf("approximation quality err_P(ĥ)/k* (n=%d, w=%d, ε=%g, %d trials/row)", n, w, eps, trials),
		Columns: []string{"noise", "mean ratio", "p95 ratio", "max ratio", "frac ≤ 1+ε"},
	}
	for _, noise := range noises {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(noise*1000)))
		var ratios []float64
		within := 0
		for trial := 0; trial < trials; trial++ {
			lab := dataset.WidthControlled(rng, dataset.WidthParams{N: n, W: w, Noise: noise})
			ld := geom.LabeledDataset{Points: lab}
			kstar := mustSolve(ld.Weighted()).WErr
			if kstar == 0 {
				continue
			}
			_, errP, err := activeRun(lab, eps, rng)
			if err != nil {
				panic(err)
			}
			ratio := float64(errP) / kstar
			ratios = append(ratios, ratio)
			if ratio <= 1+eps+1e-9 {
				within++
			}
		}
		s := stats.Summarize(ratios)
		t.Rows = append(t.Rows, []string{
			fmtF(noise), fmtF(s.Mean), fmtF(s.P95), fmtF(s.Max),
			fmtF(float64(within) / float64(len(ratios))),
		})
	}
	t.Notes = append(t.Notes,
		"Claim (Thm 2): err_P(ĥ) ≤ (1+ε)·k* with probability ≥ 1-δ; the final column is the empirical success rate (δ=0.05 here).",
		"k* is computed exactly per trial by the Theorem 4 passive solver on the full labels.",
	)
	return t
}

// BaselineComparison is E7: ours vs FullProbe vs UniformERM vs RBS on
// the same width-controlled inputs, matched by the oracle interface.
// Two noise regimes are reported: at high noise k* is large and any
// reasonable learner looks fine; at low noise k* ≪ n and the
// multiplicative-vs-additive separation the paper argues for becomes
// visible.
func BaselineComparison(cfg Config) Table {
	n := 60000
	trials := 5
	noises := []float64{0.1, 0.005}
	if cfg.Quick {
		n = 12000
		trials = 2
		noises = []float64{0.05}
	}
	const (
		w   = 8
		eps = 0.5
	)
	t := Table{
		ID:      "E7",
		Title:   fmt.Sprintf("method comparison (n=%d, w=%d, ε=%g, %d trials/regime)", n, w, eps, trials),
		Columns: []string{"noise", "method", "probes (mean)", "err/k* (mean)", "err/k* (max)"},
	}

	order := []string{"ActiveLearn (ours)", "RBS (Tao'18-style)", "UniformERM (matched probes)", "FullProbe"}
	for _, noise := range noises {
		type agg struct{ probes, ratios []float64 }
		results := map[string]*agg{}
		for _, name := range order {
			results[name] = &agg{}
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 7 + int64(noise*10000)))
		for trial := 0; trial < trials; trial++ {
			lab := dataset.WidthControlled(rng, dataset.WidthParams{N: n, W: w, Noise: noise})
			pts := make([]geom.Point, len(lab))
			for i, lp := range lab {
				pts[i] = lp.P
			}
			ld := geom.LabeledDataset{Points: lab}
			kstar := mustSolve(ld.Weighted()).WErr
			if kstar == 0 {
				continue
			}
			record := func(name string, probes int, errP int) {
				results[name].probes = append(results[name].probes, float64(probes))
				results[name].ratios = append(results[name].ratios, float64(errP)/kstar)
			}

			in := oracle.InstrumentLabeled(lab)
			res, err := core.ActiveLearn(pts, in.O, core.PracticalParams(eps, 0.05), rng)
			if err != nil {
				panic(err)
			}
			ourProbes := in.DistinctProbes()
			record("ActiveLearn (ours)", ourProbes, geom.Err(lab, res.Classifier.Classify))

			rbs, err := baselines.RBS(pts, oracle.FromLabeled(lab), rng)
			if err != nil {
				panic(err)
			}
			record("RBS (Tao'18-style)", rbs.Probes, geom.Err(lab, rbs.Classifier.Classify))

			erm, err := baselines.UniformERM(pts, oracle.FromLabeled(lab), ourProbes, rng)
			if err != nil {
				panic(err)
			}
			record("UniformERM (matched probes)", erm.Probes, geom.Err(lab, erm.Classifier.Classify))

			full, err := baselines.FullProbe(pts, oracle.FromLabeled(lab))
			if err != nil {
				panic(err)
			}
			record("FullProbe", full.Probes, geom.Err(lab, full.Classifier.Classify))
		}
		for _, name := range order {
			a := results[name]
			t.Rows = append(t.Rows, []string{
				fmtF(noise), name, fmtF(stats.Mean(a.probes)), fmtF(stats.Mean(a.ratios)), fmtF(stats.Max(a.ratios)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"Claims (§1.2): ours reaches (1+ε)k* with polylog-in-n probes; RBS reaches ≈2k* with fewer probes; UniformERM at the same probe budget carries an additive εn-style error — harmless when k* is large (high noise) but a much worse ratio when k* ≪ n (low noise); FullProbe is exact at Θ(n) probes.",
	)
	return t
}
