package experiments

import (
	"fmt"
	"math/rand"

	"monoclass/internal/chains"
	"monoclass/internal/core"
	"monoclass/internal/em"
	"monoclass/internal/geom"
	"monoclass/internal/oracle"
	"monoclass/internal/problem"
	"monoclass/internal/quantize"
)

// QuantizationTradeoff is E11: on entity-matching similarity points —
// the paper's motivating workload, where raw continuous scores make
// the dominance width large — measure how score quantization trades
// labeling cost (width, probes) against the accuracy floor (k*).
// This experiment extends the paper: Theorem 2's w-dependence makes
// the knob's existence a direct corollary, but the paper does not
// evaluate it.
func QuantizationTradeoff(cfg Config) Table {
	pairsTotal := 12000
	entities := 2400
	if cfg.Quick {
		pairsTotal = 2500
		entities = 600
	}
	const eps = 1.0
	t := Table{
		ID:      "E11",
		Title:   fmt.Sprintf("quantization tradeoff on entity-matching points (%d pairs, ε=%g)", pairsTotal, eps),
		Columns: []string{"levels", "width", "k*", "probes", "probes/n", "err/k*"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	recs := em.GenerateCorpus(rng, em.CorpusParams{
		Entities:         entities,
		RecordsPerEntity: 2,
		TitleTokens:      3,
		TypoRate:         0.4,
		TokenDropRate:    0.3,
		PriceJitter:      0.3,
	})
	pairs := em.SamplePairs(rng, recs, em.PairParams{
		MatchPairs:    pairsTotal / 4,
		NonMatchPairs: pairsTotal - pairsTotal/4,
	})
	lab := em.ToPoints(recs, pairs)
	raw := make([]geom.Point, len(lab))
	for i, lp := range lab {
		raw[i] = lp.P
	}

	for _, levels := range []int{0, 20, 10, 5, 3} {
		pts := raw
		if levels > 0 {
			pts = quantize.Uniform(raw, levels)
		}
		qlab := make([]geom.LabeledPoint, len(lab))
		ws := make(geom.WeightedSet, len(lab))
		for i := range lab {
			qlab[i] = geom.LabeledPoint{P: pts[i], Label: lab[i].Label}
			ws[i] = geom.WeightedPoint{P: pts[i], Label: lab[i].Label, Weight: 1}
		}
		// The minimum (4-D) decomposition gives the width column and
		// the chains the active run probes along, since Theorem 2's
		// budget follows the width; the k* solve takes Prepare's own
		// cover, which may be wider.
		dec := chains.Decompose(pts)
		width := dec.Width
		sol, err := problem.Solve(ws)
		if err != nil {
			panic(err)
		}
		kstar := sol.WErr

		in := oracle.InstrumentLabeled(qlab)
		res, err := core.ActiveLearnChains(pts, in.O, core.PracticalParams(eps, 0.05), rng, dec.Chains)
		if err != nil {
			panic(err)
		}
		errP := float64(geom.Err(qlab, res.Classifier.Classify))
		ratio := "-"
		if kstar > 0 {
			ratio = fmtF(errP / kstar)
		}
		levelLabel := "raw"
		if levels > 0 {
			levelLabel = fmtInt(levels)
		}
		t.Rows = append(t.Rows, []string{
			levelLabel, fmtInt(width), fmtF(kstar),
			fmtInt(in.DistinctProbes()),
			fmtF(float64(in.DistinctProbes()) / float64(len(pts))),
			ratio,
		})
	}
	t.Notes = append(t.Notes,
		"Coarser grids shrink the dominance width (so probing cost falls per Thm 2) while k* — the best achievable error on the snapped points — creeps up: a deliberate accuracy-for-labels exchange.",
		"Extension experiment: implied by the paper's w-dependence but not evaluated there.",
	)
	return t
}
