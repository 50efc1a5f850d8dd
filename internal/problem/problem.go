// Package problem owns the prepared form of one monotone-classification
// instance: the points, their dominance representation, a chain
// decomposition, and the Section 5.1 flow network, built once by
// Prepare and shared by every solver layer — passive solves, audits,
// conformance differentials, the online updater, and serving gates all
// accept a *Problem instead of re-deriving the same structure from raw
// points.
//
// A Problem is immutable after Prepare: accessors never mutate it and
// repeated Solve calls are deterministic (the one mutable piece, the
// flow network's residual state, is reset under an internal mutex).
// The dominance representation is chosen by MatrixMode: dense keeps
// the full bit-packed matrix (the classic O(n²/64)-word layout),
// blocked materializes cache-sized row tiles on demand behind an LRU,
// and implicit answers dominance queries from per-dimension rank
// arrays without materializing anything. Auto picks dense up to
// DenseLimit points and blocked/implicit past it, so the n²/64 memory
// wall never stops Prepare.
package problem

import (
	"fmt"
	"sync"
	"time"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
	"monoclass/internal/passive"
)

// MatrixMode selects the dominance representation of a Problem.
type MatrixMode int

const (
	// ModeAuto picks dense while the matrix fits (n ≤ DenseLimit and
	// under MaxDenseBytes), then blocked for d ≥ 3 and implicit for
	// d ≤ 2.
	ModeAuto MatrixMode = iota
	// ModeDense materializes the full bit-packed matrix (domgraph.Build);
	// Prepare refuses when it would exceed MaxDenseBytes.
	ModeDense
	// ModeBlocked materializes the matrix in cache-sized row tiles on
	// demand, behind an LRU of tiles (domgraph.Blocked).
	ModeBlocked
	// ModeImplicit never materializes bits: dominance queries are
	// answered from per-dimension rank arrays (domgraph.Implicit).
	ModeImplicit
)

// String returns the mode's flag spelling: auto, dense, blocked,
// implicit.
func (m MatrixMode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeDense:
		return "dense"
	case ModeBlocked:
		return "blocked"
	case ModeImplicit:
		return "implicit"
	}
	return fmt.Sprintf("MatrixMode(%d)", int(m))
}

// ParseMode is String's inverse, for flags and the serialized format.
func ParseMode(s string) (MatrixMode, error) {
	switch s {
	case "auto":
		return ModeAuto, nil
	case "dense":
		return ModeDense, nil
	case "blocked":
		return ModeBlocked, nil
	case "implicit":
		return ModeImplicit, nil
	}
	return 0, fmt.Errorf("problem: unknown matrix mode %q (want auto, dense, blocked, or implicit)", s)
}

// Tuning defaults; zero Options fields resolve to these.
const (
	// DefaultDenseLimit is the auto-mode point-count threshold past
	// which Prepare stops materializing the dense matrix (1 GiB of
	// dom+dag words at the limit).
	DefaultDenseLimit = 65536
	// DefaultMaxDenseBytes caps the dense matrix footprint: explicit
	// ModeDense refuses past it, ModeAuto falls through to a
	// non-materializing mode.
	DefaultMaxDenseBytes = int64(2) << 30
	// DefaultExactDecomposeLimit is the largest n at which a
	// non-dense Problem at d ≥ 3 still materializes the matrix
	// transiently to compute an exact minimum chain decomposition;
	// past it (or past the dense-footprint guard), GreedyDecompose
	// supplies a valid (possibly wider) cover and Stats records the
	// fallback. Raised from 16384 once the matching was warm-started
	// from the greedy cover: exact width now costs only the
	// seed-to-optimum augmentation gap on top of the greedy cover
	// instead of O(√n) cold Hopcroft–Karp phases, so the transient
	// matrix build — not the matching — bounds the practical limit.
	DefaultExactDecomposeLimit = 65536
	// streamCountLimit is the largest n at which Violations streams
	// packed rows out of a blocked view; past it the chain-counting
	// method avoids the O(n²) row scan entirely.
	streamCountLimit = 262144
)

// Options configures Prepare.
type Options struct {
	// Mode selects the dominance representation; ModeAuto (the zero
	// value) picks one by instance size.
	Mode MatrixMode
	// DenseLimit overrides the auto-mode dense threshold (points);
	// DefaultDenseLimit when zero.
	DenseLimit int
	// MaxDenseBytes overrides the dense footprint guard;
	// DefaultMaxDenseBytes when zero.
	MaxDenseBytes int64
	// ExactDecomposeLimit overrides the exact-decomposition threshold
	// for non-dense d ≥ 3 instances; DefaultExactDecomposeLimit when
	// zero.
	ExactDecomposeLimit int
	// Blocked tunes the tile cache in ModeBlocked (defaults apply
	// per-field, see domgraph.BlockedConfig).
	Blocked domgraph.BlockedConfig
}

func (o Options) withDefaults() Options {
	if o.DenseLimit == 0 {
		o.DenseLimit = DefaultDenseLimit
	}
	if o.MaxDenseBytes == 0 {
		o.MaxDenseBytes = DefaultMaxDenseBytes
	}
	if o.ExactDecomposeLimit == 0 {
		o.ExactDecomposeLimit = DefaultExactDecomposeLimit
	}
	return o
}

// Decomposition path names recorded in PrepareStats.DecomposePath.
const (
	// PathFast2D: the d ≤ 2 O(n log n) construction; always exact.
	PathFast2D = "fast-2d"
	// PathExactDense: warm-started matching over the retained dense
	// matrix; exact.
	PathExactDense = "exact-dense"
	// PathExactTransient: non-dense mode that materialized the matrix
	// transiently for the warm-started matching; exact.
	PathExactTransient = "exact-transient"
	// PathGreedyFallback: past ExactDecomposeLimit (or the dense
	// footprint guard) — first-fit cover, possibly wider than the true
	// width. The one path where ExactWidth is false.
	PathGreedyFallback = "greedy-fallback"
	// PathLoaded: decomposition restored verbatim from a serialized
	// Problem (problem.Read); exactness is whatever the writer recorded.
	PathLoaded = "loaded"
)

// PrepareStats records how Prepare built a Problem and how long each
// stage took; benchtab's problem table, monoclass prepare, and the
// serve /stats endpoint all surface it. The zero TotalNS of a loaded
// Problem distinguishes restored instances from freshly prepared ones.
type PrepareStats struct {
	// N and Dim echo the instance shape.
	N   int `json:"n"`
	Dim int `json:"d"`
	// Mode is the resolved matrix mode (never ModeAuto).
	Mode string `json:"mode"`
	// Width is the decomposition's chain count; ExactWidth reports
	// whether that is the true dominance width or a greedy upper bound.
	Width      int  `json:"width"`
	ExactWidth bool `json:"exact_width"`
	// DecomposePath names which decomposition route ran (Path*
	// constants) — the greedy fallback is no longer silent.
	DecomposePath string `json:"decompose_path"`
	// SeedChains, Augmentations, Phases, and CertEarlyExit mirror
	// chains.DecomposeStats for the exact matrix paths: the warm-start
	// seed's chain count, the augmenting paths needed on top of it
	// (exactly SeedChains − Width), the BFS phases run, and whether the
	// antichain certificate proved the seed optimal with no matching
	// work at all.
	SeedChains    int  `json:"seed_chains,omitempty"`
	Augmentations int  `json:"augmentations,omitempty"`
	Phases        int  `json:"phases,omitempty"`
	CertEarlyExit bool `json:"cert_early_exit,omitempty"`
	// Contending and Edges give the flow network's size: |P^con|
	// (its vertices minus source and sink) and its edge count, finite
	// and ∞. Loaded Problems rebuild the network, so they carry both.
	Contending int `json:"contending"`
	Edges      int `json:"edges"`
	// Per-stage wall times: dominance representation build, chain
	// decomposition (including a transient materialization when the
	// path is exact-transient), flow-network construction, and the
	// whole Prepare call end to end.
	MatrixNS    int64 `json:"matrix_ns"`
	DecomposeNS int64 `json:"decompose_ns"`
	NetworkNS   int64 `json:"network_ns"`
	TotalNS     int64 `json:"total_ns"`
}

// SolveOptions configures one Solve call over a prepared Problem.
type SolveOptions struct {
	// Solver is the max-flow algorithm; the default workspace-pooled
	// push-relabel engine when nil.
	Solver passive.FlowSolver
}

// Problem is one prepared instance. It is immutable after Prepare /
// Read; Solve and Violations are safe for concurrent use.
type Problem struct {
	ws     geom.WeightedSet // owned (Prepare clones; Read decodes fresh)
	pts    []geom.Point     // ws[i].P, in input order
	dim    int
	mode   MatrixMode       // resolved, never ModeAuto
	view   domgraph.View    // the dominance representation
	matrix *domgraph.Matrix // non-nil iff mode is dense (same object as view)

	dec        chains.Decomposition
	exactWidth bool // dec is a minimum decomposition (width = dominance width)
	stats      PrepareStats

	prep *passive.Prepared

	mu           sync.Mutex // guards prep's network state and the lazy fields
	violations   int
	violationsOK bool
}

// Prepare validates ws, clones it, and builds the full prepared form:
// the dominance representation picked by opts, a chain decomposition
// (exact below the mode's limits, greedy above), and the passive flow
// network. The input set must be non-empty, dimensionally consistent,
// and carry positive finite weights.
//
// Every mode builds the network with the one passive.Prepare over the
// Problem's own view and the same cover, so dense, blocked and
// implicit Problems of one instance solve bit-identically — the
// problem-modes-agree conformance check holds them to it.
func Prepare(ws geom.WeightedSet, opts Options) (*Problem, error) {
	start := time.Now()
	if len(ws) == 0 {
		return nil, fmt.Errorf("problem: empty input set")
	}
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()

	owned := make(geom.WeightedSet, len(ws))
	for i, wp := range ws {
		owned[i] = geom.WeightedPoint{P: wp.P.Clone(), Label: wp.Label, Weight: wp.Weight}
	}
	pts := pointsOf(owned)
	n, d := len(owned), owned.Dim()

	mode, err := resolveMode(o, n)
	if err != nil {
		return nil, err
	}
	if mode == ModeAuto {
		if n <= o.DenseLimit && denseFootprint(n) <= o.MaxDenseBytes {
			mode = ModeDense
		} else if d >= 3 {
			mode = ModeBlocked
		} else {
			mode = ModeImplicit
		}
	}

	matrixStart := time.Now()
	var view domgraph.View
	var matrix *domgraph.Matrix
	switch mode {
	case ModeDense:
		matrix = domgraph.Build(pts)
		view = matrix
	case ModeBlocked:
		view = domgraph.NewBlocked(pts, o.Blocked)
	case ModeImplicit:
		view = domgraph.NewImplicit(pts)
	}
	var st PrepareStats
	st.MatrixNS = time.Since(matrixStart).Nanoseconds()

	decStart := time.Now()
	var dec chains.Decomposition
	var dst chains.DecomposeStats
	exact := true
	switch {
	case d <= 2:
		// O(n log n) fast paths; never touch the matrix.
		dec = chains.Decompose(pts)
		st.DecomposePath = PathFast2D
	case matrix != nil:
		dec, dst = chains.DecomposeMatrixStats(pts, matrix)
		st.DecomposePath = PathExactDense
	case n <= o.ExactDecomposeLimit && denseFootprint(n) <= o.MaxDenseBytes:
		// Materialize transiently for the exact warm-started cover and
		// drop the matrix (== domgraph.Build's bits) right after.
		dec, dst = chains.DecomposeMatrixStats(pts, view.Materialize())
		st.DecomposePath = PathExactTransient
	default:
		gc := chains.GreedyDecompose(pts)
		dec = chains.Decomposition{Chains: gc, Width: len(gc)}
		st.DecomposePath = PathGreedyFallback
		exact = false
	}
	st.DecomposeNS = time.Since(decStart).Nanoseconds()
	st.SeedChains, st.Augmentations = dst.SeedChains, dst.Augmentations
	st.Phases, st.CertEarlyExit = dst.Phases, dst.CertEarlyExit
	return assemble(owned, pts, mode, view, matrix, dec, exact, st, start), nil
}

// Solve prepares ws and solves it once: the one-shot exact passive
// solve for callers that do not keep the Problem. At d ≤ 2 it prepares
// in ModeImplicit, since nothing a single solve does there reads a
// matrix: the cover comes from the O(n log n) fast path and the
// network's lookups are O(d) rank compares, so auto mode's dense
// matrix (1 GiB at n = 65536) would be pure cost. At d ≥ 3 it uses the
// default Options.
func Solve(ws geom.WeightedSet) (passive.Solution, error) {
	var opts Options
	if ws.Dim() <= 2 {
		opts.Mode = ModeImplicit
	}
	p, err := Prepare(ws, opts)
	if err != nil {
		return passive.Solution{}, err
	}
	return p.Solve()
}

// assemble builds the passive network over view and dec and finishes
// construction; matrix is what the Problem retains (nil unless
// dense). st carries the stage timings accumulated so far; assemble
// adds the network stage and the end-to-end total from start.
func assemble(ws geom.WeightedSet, pts []geom.Point, mode MatrixMode, view domgraph.View, matrix *domgraph.Matrix, dec chains.Decomposition, exact bool, st PrepareStats, start time.Time) *Problem {
	netStart := time.Now()
	prep := passive.Prepare(ws, view, dec.Chains)
	st.NetworkNS = time.Since(netStart).Nanoseconds()
	st.TotalNS = time.Since(start).Nanoseconds()
	st.N, st.Dim = len(ws), ws.Dim()
	st.Contending, st.Edges = prep.NumContending(), prep.NumEdges()
	st.Mode = mode.String()
	st.Width, st.ExactWidth = dec.Width, exact
	return &Problem{
		ws:         ws,
		pts:        pts,
		dim:        ws.Dim(),
		mode:       mode,
		view:       view,
		matrix:     matrix,
		dec:        dec,
		exactWidth: exact,
		stats:      st,
		prep:       prep,
	}
}

func pointsOf(ws geom.WeightedSet) []geom.Point {
	pts := make([]geom.Point, len(ws))
	for i := range ws {
		pts[i] = ws[i].P
	}
	return pts
}

// denseFootprint returns the dom+dag byte cost of a dense matrix over
// n points.
func denseFootprint(n int) int64 {
	words := int64((n + 63) / 64)
	return 2 * int64(n) * words * 8
}

// resolveMode rejects an explicit dense request past the memory guard;
// ModeAuto passes through for the caller to resolve.
func resolveMode(o Options, n int) (MatrixMode, error) {
	if o.Mode == ModeDense {
		if fp := denseFootprint(n); fp > o.MaxDenseBytes {
			return 0, fmt.Errorf("problem: dense matrix over %d points needs %d bytes, above the %d-byte guard; use blocked or implicit mode", n, fp, o.MaxDenseBytes)
		}
	}
	return o.Mode, nil
}

// N returns the instance size.
func (p *Problem) N() int { return len(p.ws) }

// Dim returns the dimensionality.
func (p *Problem) Dim() int { return p.dim }

// Mode returns the resolved matrix mode (never ModeAuto).
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

// View returns the dominance representation. All modes answer exactly
// the bits of domgraph.BuildNaive over Points.
func (p *Problem) View() domgraph.View { return p.view }

// Matrix returns the dense matrix, or nil when the mode does not
// materialize one.
func (p *Problem) Matrix() *domgraph.Matrix { return p.matrix }

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

// Width returns the decomposition's chain count; the dominance width
// when ExactWidth reports true.
func (p *Problem) Width() int { return p.dec.Width }

// ExactWidth reports whether the decomposition is minimum (Dilworth
// width) rather than a greedy valid cover.
func (p *Problem) ExactWidth() bool { return p.exactWidth }

// Stats returns the prepare instrumentation: per-stage wall times,
// the decomposition path taken (exact vs the greedy fallback), and the
// warm-start work counters. Loaded Problems carry PathLoaded with zero
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
// domgraph.(*Matrix).CountViolations reports — computed by the
// cheapest route the mode allows and cached: a popcount over dense
// rows, or over blocked rows (word-level tile reads) up to
// streamCountLimit points; the chain count otherwise, and always for
// implicit views, whose O(d·n) scalar row reads would make streaming
// O(d·n²).
func (p *Problem) Violations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.violationsOK {
		return p.violations
	}
	labels := p.Labels()
	switch {
	case p.matrix != nil:
		p.violations = p.matrix.CountViolations(labels)
	case p.mode == ModeBlocked && len(p.ws) <= streamCountLimit:
		p.violations = domgraph.ViewCountViolations(p.view, labels)
	default:
		p.violations = chainCountViolations(p.pts, labels, p.dec.Chains)
	}
	p.violationsOK = true
	return p.violations
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
