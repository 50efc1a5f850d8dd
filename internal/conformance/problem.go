package conformance

import (
	"bytes"
	"fmt"
	"math"
	"reflect"

	"monoclass/internal/audit"
	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/passive"
	"monoclass/internal/problem"
)

// Problem-artifact conformance: every matrix mode builds its network
// with the one passive.Prepare over its own view and the same chain
// cover, so dense, blocked and implicit Problems of one instance — and
// each one's serialization round trip — must solve bit-identically,
// with the same decomposition and audit report. The optimum and the
// contending set are held to the literal Section 5.1 construction.
// The audit report is recomputed inline from the points (matrix build,
// decomposition, network over the fresh matrix) rather than through
// the problem package.

// recomputeAuditReport derives audit.Report from scratch: fresh
// domgraph.Build, popcount violation count, dimension-dispatched
// decomposition, and a solve of the network over that matrix.
func recomputeAuditReport(ws geom.WeightedSet) (audit.Report, error) {
	r := audit.Report{
		N:         len(ws),
		Dim:       ws.Dim(),
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
	type groupInfo struct{ pos, neg bool }
	groups := make(map[string]*groupInfo, len(ws))
	for _, wp := range ws {
		key := wp.P.String()
		g := groups[key]
		if g == nil {
			g = &groupInfo{}
			groups[key] = g
		}
		if wp.Label == geom.Positive {
			g.pos = true
		} else {
			g.neg = true
		}
	}
	for _, g := range groups {
		if g.pos && g.neg {
			r.DuplicateConflicts++
		}
	}
	pts := make([]geom.Point, len(ws))
	labels := make([]geom.Label, len(ws))
	for i, wp := range ws {
		pts[i] = wp.P
		labels[i] = wp.Label
	}
	m := domgraph.Build(pts)
	r.ViolationPairs = m.CountViolations(labels)
	var dec chains.Decomposition
	if ws.Dim() >= 3 {
		dec = chains.DecomposeMatrix(pts, m)
	} else {
		dec = chains.Decompose(pts)
	}
	r.Width = dec.Width
	r.ChainLenMin, r.ChainLenMax = len(ws), 0
	for _, c := range dec.Chains {
		if len(c) < r.ChainLenMin {
			r.ChainLenMin = len(c)
		}
		if len(c) > r.ChainLenMax {
			r.ChainLenMax = len(c)
		}
	}
	sol, err := passive.Prepare(ws, m, dec.Chains).Resolve(nil)
	if err != nil {
		return audit.Report{}, err
	}
	r.KStar = sol.WErr
	r.KStarFraction = sol.WErr / r.WeightTotal
	r.Contending = sol.Stats.Contending
	return r, nil
}

func sameSolutions(tag string, got, want passive.Solution) error {
	if got.WErr != want.WErr {
		return fmt.Errorf("%s: WErr %v, want %v", tag, got.WErr, want.WErr)
	}
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		return fmt.Errorf("%s: assignment diverges", tag)
	}
	if !reflect.DeepEqual(got.Classifier.Anchors(), want.Classifier.Anchors()) {
		return fmt.Errorf("%s: anchors diverge", tag)
	}
	if got.Stats != want.Stats {
		return fmt.Errorf("%s: stats %+v, want %+v", tag, got.Stats, want.Stats)
	}
	return nil
}

// CheckProblemModesAgree is the problem-modes-agree differential.
func CheckProblemModesAgree(in Instance) error {
	ws := in.WeightedSet()
	if len(ws) == 0 {
		if _, err := problem.Prepare(ws, problem.Options{}); err == nil {
			return fmt.Errorf("Prepare accepted an empty set")
		}
		return nil
	}

	literal, err := passive.PrepareLiteral(ws)
	if err != nil {
		return fmt.Errorf("literal prepare: %w", err)
	}
	literalSol, err := literal.Resolve(nil)
	if err != nil {
		return fmt.Errorf("literal solve: %w", err)
	}
	wantDec := chains.Decompose(in.Pts())
	wantRep, err := recomputeAuditReport(ws)
	if err != nil {
		return fmt.Errorf("audit recompute: %w", err)
	}

	var first passive.Solution
	for k, mode := range []problem.MatrixMode{problem.ModeDense, problem.ModeBlocked, problem.ModeImplicit} {
		p, err := problem.Prepare(ws, problem.Options{Mode: mode})
		if err != nil {
			return fmt.Errorf("%v: Prepare: %w", mode, err)
		}
		sol, err := p.Solve()
		if err != nil {
			return fmt.Errorf("%v: Solve: %w", mode, err)
		}
		if k == 0 {
			first = sol
		}
		if err := sameSolutions(mode.String()+" vs "+problem.ModeDense.String(), sol, first); err != nil {
			return err
		}
		if !almostEq(sol.WErr, literalSol.WErr) {
			return fmt.Errorf("%v: optimum %v, literal construction %v", mode, sol.WErr, literalSol.WErr)
		}
		if !reflect.DeepEqual(p.Contending(), literal.Contending()) {
			return fmt.Errorf("%v: contending set diverges from the literal construction", mode)
		}
		again, err := p.Solve()
		if err != nil {
			return fmt.Errorf("%v: re-solve: %w", mode, err)
		}
		if err := sameSolutions(mode.String()+" re-solve", again, sol); err != nil {
			return err
		}
		if got := p.Decomposition(); !reflect.DeepEqual(got, wantDec) {
			return fmt.Errorf("%v: decomposition diverges from chains.Decompose", mode)
		}
		rep, err := audit.AuditProblem(p)
		if err != nil {
			return fmt.Errorf("%v: audit: %w", mode, err)
		}
		if rep != wantRep {
			return fmt.Errorf("%v: audit report %+v, recomputed %+v", mode, rep, wantRep)
		}

		var buf bytes.Buffer
		if err := problem.Write(&buf, p); err != nil {
			return fmt.Errorf("%v: serialize: %w", mode, err)
		}
		q, err := problem.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("%v: deserialize: %w", mode, err)
		}
		rsol, err := q.Solve()
		if err != nil {
			return fmt.Errorf("%v: reread solve: %w", mode, err)
		}
		if err := sameSolutions(mode.String()+" round trip", rsol, first); err != nil {
			return err
		}
		if q.Violations() != p.Violations() {
			return fmt.Errorf("%v: round trip changed violations %d -> %d", mode, p.Violations(), q.Violations())
		}
	}
	return nil
}
