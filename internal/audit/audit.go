// Package audit inspects a labeled weighted dataset before training:
// how far it is from monotone-consistency, where its weight mass sits,
// and the structural quantities (dominance width, chain profile) that
// determine what the paper's algorithms will cost on it. The CLI's
// `monoclass audit` subcommand prints the report.
package audit

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"monoclass/internal/chains"
	"monoclass/internal/geom"
	"monoclass/internal/problem"
)

// Report is the result of auditing one dataset.
type Report struct {
	N   int // points
	Dim int // dimensionality

	Positives int // label-1 count
	Negatives int // label-0 count

	WeightTotal float64
	WeightMin   float64
	WeightMax   float64

	// DuplicateConflicts counts coordinate-equal point groups carrying
	// both labels — irreducible error sources: any classifier must
	// mis-classify the lighter side of each group.
	DuplicateConflicts int

	// ViolationPairs counts ordered dominance pairs (label-0 over
	// label-1); zero means a perfect monotone classifier exists.
	ViolationPairs int

	// KStar is the optimal weighted error (Theorem 4), and
	// KStarFraction its share of the total weight.
	KStar         float64
	KStarFraction float64

	// Width is the dominance width; ChainLenMin/Max profile the
	// minimum chain decomposition — short chains mean the active
	// algorithm degenerates towards exhaustive probing.
	Width       int
	ChainLenMin int
	ChainLenMax int

	// Contending counts the points involved in at least one violation
	// (the |P^con| of Section 5).
	Contending int
}

// AuditProblem computes the report from a prepared Problem: the
// optimum comes out of the shared artifact, and the violation count is
// Problem.Violations (cached; it may rebuild the matrix for it). Width
// and the chain profile are the dominance width's: the Problem's own
// cover when it is certified minimum, otherwise chains.Decompose's
// over its points, since Prepare builds its network over a cover that
// may be wider (the seed cover at d ≥ 3). Past the exact limit that is
// the greedy cover, and Width its chain count, an upper bound.
func AuditProblem(p *problem.Problem) (Report, error) {
	ws := p.WeightedSet()
	r := Report{
		N:         p.N(),
		Dim:       p.Dim(),
		WeightMin: math.Inf(1),
		WeightMax: math.Inf(-1),
	}
	for _, wp := range ws {
		if wp.Label == geom.Positive {
			r.Positives++
		} else {
			r.Negatives++
		}
		r.WeightTotal += wp.Weight
		if wp.Weight < r.WeightMin {
			r.WeightMin = wp.Weight
		}
		if wp.Weight > r.WeightMax {
			r.WeightMax = wp.Weight
		}
	}

	// Duplicate conflicts: coordinate-equal groups with both labels,
	// keyed on the coordinates' bits — the same groups as their %g
	// strings on NaN-free points, −0 and +0 still apart, with no
	// formatting. A group's labels are bits 1<<label.
	groups := make(map[string]*uint8, len(ws))
	key := make([]byte, 0, 8*p.Dim())
	for _, wp := range ws {
		key = key[:0]
		for _, x := range wp.P {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
		}
		g := groups[string(key)]
		if g == nil {
			g = new(uint8)
			groups[string(key)] = g
		}
		*g |= 1 << wp.Label
	}
	for _, g := range groups {
		if *g == 3 {
			r.DuplicateConflicts++
		}
	}

	r.ViolationPairs = p.Violations()

	dec := p.Decomposition()
	if !p.ExactWidth() {
		dec = chains.Decompose(p.Points())
	}
	r.Width = dec.Width
	r.ChainLenMin, r.ChainLenMax = p.N(), 0
	for _, c := range dec.Chains {
		if len(c) < r.ChainLenMin {
			r.ChainLenMin = len(c)
		}
		if len(c) > r.ChainLenMax {
			r.ChainLenMax = len(c)
		}
	}

	// Optimum and contending count via the prepared Theorem 4 network.
	sol, err := p.Solve()
	if err != nil {
		return Report{}, err
	}
	r.KStar = sol.WErr
	r.KStarFraction = sol.WErr / r.WeightTotal
	r.Contending = sol.Stats.Contending
	return r, nil
}

// String renders the report for terminals.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "points:               %d (dim %d)\n", r.N, r.Dim)
	fmt.Fprintf(&b, "labels:               %d positive / %d negative\n", r.Positives, r.Negatives)
	fmt.Fprintf(&b, "weights:              total %g, min %g, max %g\n", r.WeightTotal, r.WeightMin, r.WeightMax)
	fmt.Fprintf(&b, "duplicate conflicts:  %d point groups with both labels\n", r.DuplicateConflicts)
	fmt.Fprintf(&b, "violation pairs:      %d (0 means perfectly monotone-consistent)\n", r.ViolationPairs)
	fmt.Fprintf(&b, "contending points:    %d (|P^con| of Thm 4)\n", r.Contending)
	fmt.Fprintf(&b, "optimal error k*:     %g (%.2f%% of total weight)\n", r.KStar, 100*r.KStarFraction)
	fmt.Fprintf(&b, "dominance width:      %d (active probing scales with this)\n", r.Width)
	fmt.Fprintf(&b, "chain lengths:        min %d, max %d over %d chains\n", r.ChainLenMin, r.ChainLenMax, r.Width)
	return b.String()
}
