package passive

import (
	"fmt"
	"math"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
)

// NaiveLimit is the largest input NaiveSolve accepts; the 2^n subset
// enumeration makes anything bigger impractical. Cross-checking
// harnesses gate their naive comparisons on it.
const NaiveLimit = 25

// NaiveSolve is the exponential-time reference solver sketched in
// Section 1.2 of the paper: enumerate every subset S ⊆ P, check whether
// mapping S to 1 and P \ S to 0 is monotone-consistent, and keep the
// assignment of minimum weighted error. It exists to cross-check the
// flow solver on small inputs and to anchor experiment E5's
// exponential-vs-polynomial comparison. It refuses inputs larger than
// NaiveLimit points.
func NaiveSolve(ws geom.WeightedSet) (Solution, error) {
	n := len(ws)
	if n == 0 {
		return Solution{}, fmt.Errorf("passive: empty input set")
	}
	if n > NaiveLimit {
		return Solution{}, fmt.Errorf("passive: naive solver limited to %d points, got %d", NaiveLimit, n)
	}
	if err := ws.Validate(); err != nil {
		return Solution{}, err
	}

	// Precompute dominance pairs once.
	type pair struct{ hi, lo int }
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && geom.Dominates(ws[i].P, ws[j].P) {
				pairs = append(pairs, pair{hi: i, lo: j})
			}
		}
	}

	bestErr := math.Inf(1)
	var bestMask uint32
	for mask := uint32(0); mask < 1<<n; mask++ {
		ok := true
		for _, pr := range pairs {
			// hi assigned 0 while dominated lo assigned 1 breaks
			// monotonicity.
			if mask&(1<<pr.hi) == 0 && mask&(1<<pr.lo) != 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var e float64
		for i := 0; i < n; i++ {
			assigned := geom.Label(0)
			if mask&(1<<i) != 0 {
				assigned = geom.Positive
			}
			if assigned != ws[i].Label {
				e += ws[i].Weight
			}
		}
		if e < bestErr {
			bestErr = e
			bestMask = mask
		}
	}

	assign := make([]geom.Label, n)
	pts := make([]geom.Point, n)
	for i := range ws {
		pts[i] = ws[i].P
		if bestMask&(1<<i) != 0 {
			assign[i] = geom.Positive
		}
	}
	h, err := classifier.FromAssignment(pts, assign, nil)
	if err != nil {
		return Solution{}, fmt.Errorf("passive: naive assignment not monotone: %w", err)
	}
	return Solution{
		Classifier: h,
		WErr:       bestErr,
		Assignment: assign,
		Stats:      Stats{N: n, FlowValue: bestErr},
	}, nil
}

// PrepareLiteral builds the flow network exactly as Section 5.1 states
// it: the contending set by a scan of every (label-0, label-1) pair,
// and one ∞ edge per contending dominating pair — Θ(n²) edges worst
// case. It is the reference the sparse construction of Prepare is
// checked against (conformance, tests, experiment E5), and like
// NaiveSolve it validates its input itself. It keeps no cover, so its
// Resolve decodes the anchors from every 1-assigned point.
func PrepareLiteral(ws geom.WeightedSet) (*Prepared, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("passive: empty input set")
	}
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	dominating := func(i, j int) bool {
		return ws[i].Label == geom.Negative && ws[j].Label == geom.Positive && geom.Dominates(ws[i].P, ws[j].P)
	}
	contending := make([]bool, len(ws))
	for i := range ws {
		for j := range ws {
			if dominating(i, j) {
				contending[i] = true
				contending[j] = true
			}
		}
	}
	pp, vertex := newPrepared(ws, contending)
	if pp.g != nil {
		for i := range ws {
			for j := range ws {
				if dominating(i, j) {
					pp.g.AddEdge(int(vertex[i]), int(vertex[j]), math.Inf(1))
				}
			}
		}
	}
	return pp, nil
}
