package experiments

import (
	"fmt"
	"math/rand"

	"monoclass/internal/chains"
	"monoclass/internal/core"
	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/oracle"
)

// ChainAblation is A1: how much the chain count of the decomposition
// matters. The active algorithm stays correct with any valid
// decomposition, but its probing cost scales with the number of
// chains. We degrade the optimal decomposition deliberately by
// splitting every chain into k contiguous pieces (still a valid
// decomposition, with k·w chains) and measure the probing penalty —
// quantifying why Lemma 6's exactly-w construction is the right
// design choice.
func ChainAblation(cfg Config) Table {
	n := 120000
	trials := 3
	if cfg.Quick {
		n = 20000
		trials = 1
	}
	const (
		w     = 4
		eps   = 0.5
		noise = 0.05
	)
	t := Table{
		ID:      "A1",
		Title:   fmt.Sprintf("ablation: probing cost vs chain count (n=%d, true w=%d, ε=%g)", n, w, eps),
		Columns: []string{"split factor", "chains", "probes (mean)", "vs optimal"},
	}
	var base float64
	for _, split := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(split)))
		var sum float64
		for trial := 0; trial < trials; trial++ {
			lab := dataset.WidthControlled(rng, dataset.WidthParams{N: n, W: w, Noise: noise})
			pts := make([]geom.Point, len(lab))
			for i, lp := range lab {
				pts[i] = lp.P
			}
			dec := splitChains(chains.Decompose(pts).Chains, split)
			in := oracle.InstrumentLabeled(lab)
			if _, err := core.ActiveLearnChains(pts, in.O, core.PracticalParams(eps, 0.05), rng, dec); err != nil {
				panic(err)
			}
			sum += float64(in.DistinctProbes())
		}
		mean := sum / float64(trials)
		if split == 1 {
			base = mean
		}
		t.Rows = append(t.Rows, []string{
			fmtInt(split), fmtInt(split * w), fmtF(mean), fmt.Sprintf("%.2fx", mean/base),
		})
	}
	t.Notes = append(t.Notes,
		"The probing bound is O((#chains/ε²)·polylog): a decomposition with k·w chains pays roughly k× the probes of the minimum one (slightly less, as shorter chains recurse fewer levels). Every run remains (1+ε)-correct — only the cost degrades.",
	)
	return t
}

// splitChains cuts every chain into k contiguous pieces.
func splitChains(chains [][]int, k int) [][]int {
	if k <= 1 {
		return chains
	}
	var out [][]int
	for _, chain := range chains {
		size := (len(chain) + k - 1) / k
		if size == 0 {
			size = 1
		}
		for lo := 0; lo < len(chain); lo += size {
			hi := lo + size
			if hi > len(chain) {
				hi = len(chain)
			}
			out = append(out, chain[lo:hi])
		}
	}
	return out
}
