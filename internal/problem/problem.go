// Package problem owns the prepared form of one monotone-classification
// instance: the points, a chain decomposition, and the Section 5.1 flow
// network, built once by Prepare and shared by every solver layer —
// passive solves, audits, conformance differentials, the online
// updater, and serving gates all accept a *Problem instead of
// re-deriving the same structure from raw points.
//
// A Problem is immutable after Prepare: accessors never mutate it and
// repeated Solve calls are deterministic (the one mutable piece, the
// flow network's residual state, is reset under an internal mutex).
// Prepare covers the points through chains.CoverRoute at
// Options.ExactDecomposeLimit: Theorem 4's network is exact over any
// valid chain cover, so at d ≥ 3 it stops at the best-fit seed cover
// and skips Lemma 6's matching, which only the readers of the width
// itself need (they ask chains.DecomposeRoute). When the route built
// the dense dominance matrix (d ≥ 3 within the limit and the footprint
// guard), Prepare builds the network over it and drops it (ModeDense).
// Everywhere else — d ≤ 2 and the greedy fallback — it answers the
// network build's dominance lookups from per-dimension rank arrays
// (ModeImplicit): at d ≤ 2 the very arrays the route's fast path
// walked, built once. PrepareCover skips the route for a cover the caller
// already holds, over rank arrays too. Either way the Problem keeps
// nothing quadratic: the points, the cover and the network. Its Width,
// ExactWidth and Stats describe that cover: the dominance width only
// when ExactWidth holds.
package problem

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
	"monoclass/internal/passive"
)

// MatrixMode names the dominance representation Prepare built the
// network over.
type MatrixMode int

const (
	// ModeDense: the bit-packed matrix (domgraph.Build), which also
	// gives the best-fit seed cover at d ≥ 3. The Problem drops it once
	// the network is built.
	ModeDense MatrixMode = iota
	// ModeImplicit: per-dimension rank arrays (domgraph.Implicit), for
	// d ≤ 2, the greedy fallback, and every Problem Read restores.
	ModeImplicit
)

// String returns the mode's name: dense or implicit.
func (m MatrixMode) String() string {
	switch m {
	case ModeDense:
		return "dense"
	case ModeImplicit:
		return "implicit"
	}
	return fmt.Sprintf("MatrixMode(%d)", int(m))
}

// DefaultExactDecomposeLimit is the largest n at which Prepare builds
// the dense matrix at d ≥ 3 for the best-fit seed cover
// (chains.DefaultExactDecomposeLimit); past it, GreedyDecompose
// supplies a valid (possibly wider) cover and Stats records the
// fallback.
const DefaultExactDecomposeLimit = chains.DefaultExactDecomposeLimit

// Options configures Prepare.
type Options struct {
	// ExactDecomposeLimit overrides the largest n at which d ≥ 3 input
	// takes the dense matrix; DefaultExactDecomposeLimit when zero.
	ExactDecomposeLimit int
}

// PathLoaded is PrepareStats.DecomposePath for a cover the caller
// supplied, kept verbatim — a serialized Problem's (Read) or
// PrepareCover's; exactness is whatever the caller claimed. Prepared
// Problems record the route's path (chains.Path*).
const PathLoaded = "loaded"

// PrepareStats records how Prepare built a Problem and how long each
// stage took; benchtab's problem table, monoclass prepare, and the
// serve /stats endpoint all surface it. The zero TotalNS of a loaded
// Problem distinguishes restored instances from freshly prepared ones.
type PrepareStats struct {
	// N and Dim echo the instance shape.
	N   int `json:"n"`
	Dim int `json:"d"`
	// Mode is the dominance representation the network was built over:
	// dense or implicit.
	Mode string `json:"mode"`
	// Width is the chain count of the cover the network was built on;
	// ExactWidth reports whether an antichain of Width points certifies
	// it as the dominance width, or it is only an upper bound.
	Width      int  `json:"width"`
	ExactWidth bool `json:"exact_width"`
	// DecomposePath names which cover route ran (chains.Path*, or
	// PathLoaded): PathSeedDense at d ≥ 3 within the limit.
	DecomposePath string `json:"decompose_path"`
	// SeedChains, Augmentations, and CertEarlyExit mirror
	// chains.DecomposeStats for the dense path: the best-fit seed's
	// chain count, the augmenting paths run on top of it (0 on the seed
	// route, which runs no matching), and whether the seed's antichain
	// certificate proved it minimum.
	SeedChains    int  `json:"seed_chains,omitempty"`
	Augmentations int  `json:"augmentations,omitempty"`
	CertEarlyExit bool `json:"cert_early_exit,omitempty"`
	// Contending and Edges give the flow network's size: |P^con|
	// (its vertices minus source and sink) and its edge count, finite
	// and ∞. Loaded Problems rebuild the network, so they carry both.
	Contending int `json:"contending"`
	Edges      int `json:"edges"`
	// Per-stage wall times: dominance representation build, chain
	// cover, flow-network construction, and the whole Prepare call end
	// to end. At d ≤ 2 MatrixNS is the rank-array build and DecomposeNS
	// the patience pass over its order; on the dense path DecomposeNS
	// is the seed cover and its certificate.
	MatrixNS    int64 `json:"matrix_ns"`
	DecomposeNS int64 `json:"decompose_ns"`
	NetworkNS   int64 `json:"network_ns"`
	TotalNS     int64 `json:"total_ns"`
}

// SolveOptions configures one Solve call over a prepared Problem.
type SolveOptions struct {
	// Solver is the max-flow algorithm; the default push-relabel
	// engine, maxflow.PushRelabelHL, when nil.
	Solver maxflow.Solver
}

// Problem is one prepared instance. It is immutable after Prepare /
// PrepareCover; Solve and Violations are safe for concurrent use.
type Problem struct {
	ws   geom.WeightedSet // Prepare's clone, or the set PrepareCover was handed
	pts  []geom.Point     // ws[i].P, in input order
	mode MatrixMode       // the representation the network was built over

	dec   chains.Decomposition
	stats PrepareStats // also holds Dim and ExactWidth

	prep *passive.Prepared

	mu           sync.Mutex // guards prep's network state and the lazy fields
	violations   int
	violationsOK bool
}

// Prepare validates ws, clones it, and builds the full prepared form
// on the route the package comment describes: a chain cover (minimum
// at d ≤ 2, the certified or uncertified seed cover at d ≥ 3 within
// the limits, greedy past them) and the passive flow network.
// The input set must be non-empty, dimensionally consistent, and carry
// positive finite weights.
//
// Both routes build the network with the one passive.Prepare, whose
// edges depend only on the cover and the dominance answers, so a
// Problem and its Write/Read round trip, rebuilt over rank arrays from
// the same cover, solve bit-identically — the problem-modes-agree
// conformance check holds them to it.
func Prepare(ws geom.WeightedSet, opts Options) (*Problem, error) {
	start := time.Now()
	if err := validate(ws); err != nil {
		return nil, err
	}
	owned := clone(ws)
	pts := pointsOf(owned)

	decStart := time.Now()
	route := chains.CoverRoute(pts, opts.ExactDecomposeLimit)
	var st PrepareStats
	st.MatrixNS = route.MatrixTime.Nanoseconds()
	st.DecomposeNS = time.Since(decStart).Nanoseconds() - st.MatrixNS
	st.DecomposePath = route.Path
	st.SeedChains, st.Augmentations = route.Stats.SeedChains, route.Stats.Augmentations
	st.CertEarlyExit = route.Stats.CertEarlyExit

	var view domgraph.View
	mode := ModeImplicit
	switch {
	case route.Matrix != nil:
		view, mode = route.Matrix, ModeDense
	case route.Implicit != nil:
		view = route.Implicit
	default:
		implicitStart := time.Now()
		view = domgraph.NewImplicit(pts)
		st.MatrixNS = time.Since(implicitStart).Nanoseconds()
	}
	return assemble(owned, pts, mode, view, route.Decomposition, route.Exact(), st, start), nil
}

// Solve prepares ws and solves it once: the one-shot exact passive
// solve for callers that do not keep the Problem.
func Solve(ws geom.WeightedSet) (passive.Solution, error) {
	p, err := Prepare(ws, Options{})
	if err != nil {
		return passive.Solution{}, err
	}
	return p.Solve()
}

// PrepareCover builds a Problem over a chain cover the caller already
// holds — a decoded file's (Read), or a superset's cover restricted to
// a sample of it (the active pipeline's Σ) — instead of decomposing:
// the Theorem 4 network is exact for any valid cover. It validates
// what it trusts as Read does: ws as Prepare does; dec as a partition
// of ws's points into ascending dominance chains with Width equal to
// the chain count; a non-empty Antichain as pairwise incomparable, and
// of Width points when exact claims the cover minimum. The network is
// built over rank arrays (ModeImplicit); Stats records PathLoaded with
// zero timings. The Problem keeps ws and dec, which the caller must
// not modify afterwards.
func PrepareCover(ws geom.WeightedSet, dec chains.Decomposition, exact bool) (*Problem, error) {
	if err := validate(ws); err != nil {
		return nil, err
	}
	pts := pointsOf(ws)
	if dec.Width != len(dec.Chains) {
		return nil, fmt.Errorf("problem: width %d but %d chains", dec.Width, len(dec.Chains))
	}
	if err := chains.ValidateDecomposition(pts, dec.Chains); err != nil {
		return nil, fmt.Errorf("problem: cover: %w", err)
	}
	if len(dec.Antichain) > 0 {
		if err := chains.ValidateAntichain(pts, dec.Antichain); err != nil {
			return nil, fmt.Errorf("problem: antichain: %w", err)
		}
		if exact && len(dec.Antichain) != dec.Width {
			return nil, fmt.Errorf("problem: antichain of %d points cannot certify width %d", len(dec.Antichain), dec.Width)
		}
	}
	p := assemble(ws, pts, ModeImplicit, domgraph.NewImplicit(pts), dec, exact, PrepareStats{DecomposePath: PathLoaded}, time.Now())
	p.stats.NetworkNS, p.stats.TotalNS = 0, 0
	return p, nil
}

// assemble builds the passive network over view and dec and finishes
// construction; the Problem keeps neither view nor matrix. st carries
// the stage timings accumulated so far; assemble adds the network
// stage and the end-to-end total from start.
func assemble(ws geom.WeightedSet, pts []geom.Point, mode MatrixMode, view domgraph.View, dec chains.Decomposition, exact bool, st PrepareStats, start time.Time) *Problem {
	netStart := time.Now()
	prep := passive.Prepare(ws, view, dec.Chains)
	st.NetworkNS = time.Since(netStart).Nanoseconds()
	st.TotalNS = time.Since(start).Nanoseconds()
	st.N, st.Dim = len(ws), ws.Dim()
	st.Contending, st.Edges = prep.NumContending(), prep.NumEdges()
	st.Mode = mode.String()
	st.Width, st.ExactWidth = dec.Width, exact
	return &Problem{ws: ws, pts: pts, mode: mode, dec: dec, stats: st, prep: prep}
}

// clone copies a validated ws with every point carved from one
// coordinate backing, cap == len.
func clone(ws geom.WeightedSet) geom.WeightedSet {
	d := ws.Dim()
	coords := make([]float64, len(ws)*d)
	owned := make(geom.WeightedSet, len(ws))
	for i, wp := range ws {
		p := coords[i*d : (i+1)*d : (i+1)*d]
		copy(p, wp.P)
		owned[i] = geom.WeightedPoint{P: p, Label: wp.Label, Weight: wp.Weight}
	}
	return owned
}

// validate rejects an empty set and what ws.Validate rejects.
func validate(ws geom.WeightedSet) error {
	if len(ws) == 0 {
		return fmt.Errorf("problem: empty input set")
	}
	return ws.Validate()
}

func pointsOf(ws geom.WeightedSet) []geom.Point {
	pts := make([]geom.Point, len(ws))
	for i := range ws {
		pts[i] = ws[i].P
	}
	return pts
}

// N returns the instance size.
func (p *Problem) N() int { return len(p.ws) }

// Dim returns the dimensionality.
func (p *Problem) Dim() int { return p.stats.Dim }

// Mode returns the dominance representation the network was built
// over.
func (p *Problem) Mode() MatrixMode { return p.mode }

// WeightedSet returns the instance's weighted point set, in input
// order. The caller must not modify it.
func (p *Problem) WeightedSet() geom.WeightedSet { return p.ws }

// Points returns the instance's points, in input order. The caller
// must not modify them.
func (p *Problem) Points() []geom.Point { return p.pts }

// Labels returns a copy of the instance's labels, in input order.
func (p *Problem) Labels() []geom.Label {
	labels := make([]geom.Label, len(p.ws))
	for i := range p.ws {
		labels[i] = p.ws[i].Label
	}
	return labels
}

// Decomposition returns a deep copy of the chain decomposition.
func (p *Problem) Decomposition() chains.Decomposition {
	cp := chains.Decomposition{
		Chains:    make([][]int, len(p.dec.Chains)),
		Width:     p.dec.Width,
		Antichain: append([]int(nil), p.dec.Antichain...),
	}
	for i, c := range p.dec.Chains {
		cp.Chains[i] = append([]int(nil), c...)
	}
	return cp
}

// Width returns the cover's chain count; the dominance width when
// ExactWidth reports true. chains.Width gives the width itself.
func (p *Problem) Width() int { return p.dec.Width }

// ExactWidth reports whether the cover is certified minimum (its
// antichain has Width points, the Dilworth width) rather than a valid
// cover that may be wider: a seed cover without a certificate, or the
// greedy fallback.
func (p *Problem) ExactWidth() bool { return p.stats.ExactWidth }

// Stats returns the prepare instrumentation: per-stage wall times,
// the cover path taken (the seed cover vs the greedy fallback), and
// the seed's counters. Loaded Problems carry PathLoaded with zero
// timings.
func (p *Problem) Stats() PrepareStats { return p.stats }

// Contending returns a copy of the contending-point mask.
func (p *Problem) Contending() []bool { return p.prep.Contending() }

// NumContending returns |P^con|.
func (p *Problem) NumContending() int { return p.prep.NumContending() }

// NumEdges returns the prepared flow network's edge count.
func (p *Problem) NumEdges() int { return p.prep.NumEdges() }

// Network returns a copy of the prepared flow network, or nil when no
// points contend.
func (p *Problem) Network() *maxflow.Network {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prep.Network()
}

// Solve re-solves the prepared network with the default flow solver.
// The validation, contending scan, decomposition, and network build
// are all amortized into Prepare, so a re-solve pays only the flow
// computation and the cut decode.
func (p *Problem) Solve() (passive.Solution, error) {
	return p.SolveWith(SolveOptions{})
}

// SolveWith is Solve with an explicit flow solver.
func (p *Problem) SolveWith(opts SolveOptions) (passive.Solution, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prep.Resolve(opts.Solver)
}

// Violations returns the number of (negative, positive) ordered pairs
// where the negative point dominates the positive one — the quantity
// domgraph.(*Matrix).CountViolations reports — computed once and
// cached. It takes the cheaper of two methods for the Problem's shape
// (rebuildCheaper), whatever route built it: rebuild the dominance
// triangle and popcount it, or count through the chain cover, which
// needs no quadratic memory.
func (p *Problem) Violations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.violationsOK {
		return p.violations
	}
	labels := p.Labels()
	if rebuildCheaper(len(p.pts), p.Dim(), p.dec.Width) {
		p.violations = domgraph.Build(p.pts).CountViolations(labels)
	} else {
		p.violations = chainCountViolations(p.pts, labels, p.dec.Chains)
	}
	p.violationsOK = true
	return p.violations
}

// rebuildCheaper reports whether rebuilding the dominance triangle of
// n d-dimensional points, about d·n²/128 word operations, costs less
// than counting through w chains, about n·w·log₂n dominance tests.
// Past DefaultExactDecomposeLimit points it never rebuilds, which caps
// the transient triangle at 256 MiB.
func rebuildCheaper(n, d, w int) bool {
	return n <= DefaultExactDecomposeLimit && d*n/128 < w*bits.Len(uint(n))
}

// chainCountViolations counts dominance violations through the chain
// decomposition instead of the O(n²) relation: along a chain (ascending
// dominance order) the members dominated by any fixed point form a
// prefix, by transitivity, so one binary search per (negative, chain)
// pair plus per-chain positive-prefix sums gives the exact pair count
// in O(n · w · d · log n).
func chainCountViolations(pts []geom.Point, labels []geom.Label, chainSets [][]int) int {
	prefixes := make([][]int32, len(chainSets))
	for c, ch := range chainSets {
		pre := make([]int32, len(ch)+1)
		for k, idx := range ch {
			pre[k+1] = pre[k]
			if labels[idx] == geom.Positive {
				pre[k+1]++
			}
		}
		prefixes[c] = pre
	}
	total := 0
	for i, lb := range labels {
		if lb != geom.Negative {
			continue
		}
		for c, ch := range chainSets {
			lo, hi := 0, len(ch)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if geom.Dominates(pts[i], pts[ch[mid]]) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			total += int(prefixes[c][lo])
		}
	}
	return total
}
