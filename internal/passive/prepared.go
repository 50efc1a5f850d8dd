package passive

import (
	"fmt"
	"math"

	"monoclass/internal/classifier"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
)

// Prepared is one passive instance with its Section 5.1 flow network
// already constructed: the contending scan and the CSR network build
// done once, so each Resolve call pays only a flow computation plus
// the cut decode, which reads the anchors off the chain cover the
// network was built from. The prepared-problem artifact
// (internal/problem) caches one of these per Problem and re-solves it
// warm.
//
// A Prepared is not safe for concurrent Resolve calls: each call
// resets and re-saturates the one underlying network.
type Prepared struct {
	ws            geom.WeightedSet // aliased from the caller; must not mutate
	cover         [][]int          // aliased likewise; nil for PrepareLiteral
	contending    []bool
	numContending int
	g             *maxflow.Network // nil when no points contend
	// owner maps finite edge ids back to input indices. Finite
	// source/sink edges are added before every ∞ edge, so their ids
	// are exactly 0..len(owner)-1 — a dense slice, not a map, because
	// the lookup sits on the cut-decode path.
	owner []int32
}

// Prepare builds the flow network of ws: source and sink edges on the
// contending points, plus the ∞ edges of sparse.go — chain links
// inside each chain's label-0 and label-1 halves and cross links from
// label-0 points — through which each contending label-0 point reaches
// exactly the contending label-1 points it dominates. view answers
// dominance over ws's points in input order, and cover is a valid
// chain decomposition of them; any valid cover works, a wider one only
// costs edges. Prepared keeps the cover: Resolve decodes the anchors
// from its chains' lowest 1-assigned members.
//
// Prepare trusts all three: ws must be non-empty, dimensionally
// consistent, NaN-free and positively weighted. Validation happens
// once, where input enters — internal/problem's Prepare and
// PrepareCover, which Read calls.
func Prepare(ws geom.WeightedSet, view domgraph.View, cover [][]int) *Prepared {
	pp, vertex := newPrepared(ws, contendingPoints(ws, cover))
	pp.cover = cover
	if pp.g != nil {
		infinityEdges(view, ws, cover, pp.contending, pp.numContending, func(from, to int) {
			pp.g.AddEdge(int(vertex[from]), int(vertex[to]), math.Inf(1))
		})
	}
	return pp
}

// newPrepared numbers the vertices — 0 = source, 1 = sink, contending
// points from 2 on in input order — and adds every finite edge. It
// returns each point's vertex (-1 when not contending) for the
// caller's ∞ edges; the network is nil when no point contends.
func newPrepared(ws geom.WeightedSet, contending []bool) (*Prepared, []int32) {
	vertex := make([]int32, len(ws))
	next := int32(2)
	for i := range ws {
		vertex[i] = -1
		if contending[i] {
			vertex[i] = next
			next++
		}
	}
	pp := &Prepared{ws: ws, contending: contending, numContending: int(next - 2)}
	if pp.numContending == 0 {
		return pp, vertex
	}
	const source, sink = 0, 1
	pp.g = maxflow.New(int(next), source, sink)
	pp.owner = make([]int32, 0, pp.numContending)
	for i := range ws {
		if !contending[i] {
			continue
		}
		if ws[i].Label == geom.Negative {
			pp.g.AddEdge(source, int(vertex[i]), ws[i].Weight)
		} else {
			pp.g.AddEdge(int(vertex[i]), sink, ws[i].Weight)
		}
		pp.owner = append(pp.owner, int32(i))
	}
	return pp, vertex
}

// NumContending returns |P^con| — the vertex count of the network
// minus source and sink.
func (pp *Prepared) NumContending() int { return pp.numContending }

// NumEdges returns the edge count of the prepared network (0 when no
// points contend and no network exists).
func (pp *Prepared) NumEdges() int {
	if pp.g == nil {
		return 0
	}
	return pp.g.NumEdges()
}

// Contending returns a copy of the contending-point mask, in input
// order.
func (pp *Prepared) Contending() []bool {
	return append([]bool(nil), pp.contending...)
}

// Network returns a copy of the prepared flow network, or nil when no
// points contend. Benchmarks use it to run flow solvers on genuine
// passive-construction topologies.
func (pp *Prepared) Network() *maxflow.Network {
	if pp.g == nil {
		return nil
	}
	return pp.g.Clone()
}

// Resolve runs one max-flow computation over the prepared network
// (resetting residual capacities first, so repeated calls are
// idempotent) and decodes the min cut into a Solution. A nil solver
// uses the default push-relabel engine, maxflow.PushRelabelHL.
func (pp *Prepared) Resolve(solver maxflow.Solver) (Solution, error) {
	solverName := "custom"
	if solver == nil {
		solver = maxflow.PushRelabelHL
		solverName = "pushrelabelhl"
	}

	n := len(pp.ws)
	// Assignment starts as the points' own labels; only contending
	// points can change (Lemma 15).
	assign := make([]geom.Label, n)
	for i := range pp.ws {
		assign[i] = pp.ws[i].Label
	}

	var flowValue float64
	graphEdges := 0
	if pp.g != nil {
		graphEdges = pp.g.NumEdges()
		pp.g.Reset()
		res := solver(pp.g)
		flowValue = res.Value
		for _, cut := range res.CutEdges() {
			if cut.ID >= len(pp.owner) {
				// CutEdges already panics on ∞ edges; reaching here
				// would mean a finite type-3 edge, which cannot exist.
				return Solution{}, fmt.Errorf("passive: cut contains unexpected edge %d", cut.ID)
			}
			// Cutting a point's own edge flips its assignment.
			assign[pp.owner[cut.ID]] ^= 1
		}
	}

	pts := make([]geom.Point, n)
	for i := range pp.ws {
		pts[i] = pp.ws[i].P
	}
	h, err := classifier.FromAssignment(pts, assign, pp.cover)
	if err != nil {
		// Lemma 16 guarantees the cut assignment is monotone; failure
		// indicates a solver bug and must surface loudly.
		return Solution{}, fmt.Errorf("passive: cut assignment not monotone: %w", err)
	}
	// WErr is summed over the assignment in input order, as geom.WErr
	// rescoring the classifier sums it: the flow value equals it in
	// exact arithmetic, but its float64 rounding follows the order the
	// solver pushed flow along the ∞ edges.
	var werr float64
	for i, wp := range pp.ws {
		if assign[i] != wp.Label {
			werr += wp.Weight
		}
	}
	return Solution{
		Classifier: h,
		WErr:       werr,
		Assignment: assign,
		Stats: Stats{
			N:          n,
			Contending: pp.numContending,
			GraphEdges: graphEdges,
			FlowValue:  flowValue,
			Solver:     solverName,
		},
	}, nil
}
