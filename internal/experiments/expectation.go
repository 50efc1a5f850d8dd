package experiments

import (
	"fmt"
	"math/rand"

	"monoclass/internal/baselines"
	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/oracle"
	"monoclass/internal/stats"
)

// RBSExpectation is E13: the prior work's guarantee shape. Tao'18
// bounds its algorithm's error only *in expectation* (≈2k*), which the
// paper contrasts with Theorem 2's high-probability bound. This
// driver measures the RBS reconstruction's error-ratio distribution
// over many independent runs on one fixed input: the mean should sit
// near or below 2, while the upper tail (p95/max) drifts far above —
// exactly the weakness a with-high-probability guarantee removes.
func RBSExpectation(cfg Config) Table {
	n := 20000
	trials := 60
	if cfg.Quick {
		n = 4000
		trials = 12
	}
	const w = 4
	t := Table{
		ID:      "E13",
		Title:   fmt.Sprintf("RBS error-ratio distribution over %d runs (n=%d, w=%d)", trials, n, w),
		Columns: []string{"noise", "mean ratio", "median", "p95", "max", "mean probes"},
	}
	for _, noise := range []float64{0.02, 0.1} {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(noise*1000)))
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
		var ratios, probes []float64
		for trial := 0; trial < trials; trial++ {
			out, err := baselines.RBS(pts, oracle.FromLabeled(lab), rng)
			if err != nil {
				panic(err)
			}
			ratios = append(ratios, float64(geom.Err(lab, out.Classifier.Classify))/kstar)
			probes = append(probes, float64(out.Probes))
		}
		s := stats.Summarize(ratios)
		t.Rows = append(t.Rows, []string{
			fmtF(noise), fmtF(s.Mean), fmtF(s.Median), fmtF(s.P95), fmtF(s.Max), fmtF(stats.Mean(probes)),
		})
	}
	t.Notes = append(t.Notes,
		"Claim (§1.2): the prior 2-approximation holds only in expectation. The mean ratio behaves; the tail (p95/max) does not — the gap Theorem 2's high-probability guarantee closes (compare E7, where ours never exceeded 1.0 across regimes).",
		"RBS is the Tao'18-style reconstruction (DESIGN.md §2.3); the tail behaviour, not the exact constants, is the reproduced claim.",
	)
	return t
}
