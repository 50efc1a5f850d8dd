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

// Problem-artifact conformance: a prepared Problem — the dense route's
// seed cover at d ≥ 3, rank arrays at d ≤ 2 — and its serialization
// round trip, whose network is rebuilt over rank arrays from the same
// stored cover, must have the same edges, solve bit-identically, and
// give the same cover, violation count and audit report. The cover is
// held to its contract: a partition into chains no smaller than
// chains.Decompose's minimum cover, exact iff it carries an antichain
// of Width points, and then that very cover. Theorem 4's network is
// exact over any valid cover, so the Problem's solve must equal the
// network over the minimum cover in assignment, anchors and WErr; the
// workloads' weights are dyadic, so both flows are exact and the cut
// canonical. The optimum and the contending set are held to the
// literal Section 5.1 construction. The audit report is recomputed
// inline from the points (matrix build, minimum decomposition, network
// over the fresh matrix) rather than through the problem package.

// recomputeAuditReport derives audit.Report from scratch: fresh
// domgraph.Build, popcount violation count, the route's minimum
// decomposition (chains.Decompose), and a solve of the network over
// that matrix and cover, which it also returns.
func recomputeAuditReport(ws geom.WeightedSet) (audit.Report, passive.Solution, error) {
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
	dec := chains.Decompose(pts)
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
		return audit.Report{}, passive.Solution{}, err
	}
	r.KStar = sol.WErr
	r.KStarFraction = sol.WErr / r.WeightTotal
	r.Contending = sol.Stats.Contending
	return r, sol, nil
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

// checkCover holds a Problem's cover to its contract against the
// minimum cover chains.Decompose gives: a valid partition into
// ascending chains, Width the chain count and at least the minimum's,
// exact iff an antichain of Width points comes with it, and a
// certified cover the minimum cover itself.
func checkCover(pts []geom.Point, got chains.Decomposition, exact bool, minimum chains.Decomposition) error {
	if err := chains.ValidateDecomposition(pts, got.Chains); err != nil {
		return fmt.Errorf("cover: %w", err)
	}
	if got.Width != len(got.Chains) || got.Width < minimum.Width {
		return fmt.Errorf("cover width %d over %d chains, minimum %d", got.Width, len(got.Chains), minimum.Width)
	}
	if exact != (len(got.Antichain) == got.Width) {
		return fmt.Errorf("exact %v with an antichain of %d points and width %d", exact, len(got.Antichain), got.Width)
	}
	if err := chains.ValidateAntichain(pts, got.Antichain); err != nil {
		return err
	}
	if exact && !reflect.DeepEqual(got, minimum) {
		return fmt.Errorf("certified cover diverges from chains.Decompose")
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
	pts := in.Pts()
	wantDec := chains.Decompose(pts)
	wantRep, minSol, err := recomputeAuditReport(ws)
	if err != nil {
		return fmt.Errorf("audit recompute: %w", err)
	}

	p, err := problem.Prepare(ws, problem.Options{})
	if err != nil {
		return fmt.Errorf("Prepare: %w", err)
	}
	var buf bytes.Buffer
	if err := problem.Write(&buf, p); err != nil {
		return fmt.Errorf("serialize: %w", err)
	}
	q, err := problem.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("deserialize: %w", err)
	}
	if p.NumEdges() != q.NumEdges() {
		return fmt.Errorf("round trip: %d edges, prepared %v network %d", q.NumEdges(), p.Mode(), p.NumEdges())
	}
	first, err := p.Solve()
	if err != nil {
		return fmt.Errorf("Solve: %w", err)
	}
	if first.WErr != minSol.WErr || !reflect.DeepEqual(first.Assignment, minSol.Assignment) ||
		!reflect.DeepEqual(first.Classifier.Anchors(), minSol.Classifier.Anchors()) {
		return fmt.Errorf("solve over the %s cover (WErr %v) diverges from the network over the minimum cover (WErr %v)",
			p.Stats().DecomposePath, first.WErr, minSol.WErr)
	}
	for _, c := range []struct {
		tag  string
		prob *problem.Problem
	}{{p.Mode().String(), p}, {"round trip", q}} {
		sol, err := c.prob.Solve()
		if err != nil {
			return fmt.Errorf("%s: Solve: %w", c.tag, err)
		}
		if err := sameSolutions(c.tag, sol, first); err != nil {
			return err
		}
		if !almostEq(sol.WErr, literalSol.WErr) {
			return fmt.Errorf("%s: optimum %v, literal construction %v", c.tag, sol.WErr, literalSol.WErr)
		}
		if !reflect.DeepEqual(c.prob.Contending(), literal.Contending()) {
			return fmt.Errorf("%s: contending set diverges from the literal construction", c.tag)
		}
		got := c.prob.Decomposition()
		if !reflect.DeepEqual(got, p.Decomposition()) {
			return fmt.Errorf("%s: cover diverges from the prepared one", c.tag)
		}
		if err := checkCover(pts, got, c.prob.ExactWidth(), wantDec); err != nil {
			return fmt.Errorf("%s: %w", c.tag, err)
		}
		rep, err := audit.AuditProblem(c.prob)
		if err != nil {
			return fmt.Errorf("%s: audit: %w", c.tag, err)
		}
		if rep != wantRep {
			return fmt.Errorf("%s: audit report %+v, recomputed %+v", c.tag, rep, wantRep)
		}
	}
	if p.Violations() != q.Violations() {
		return fmt.Errorf("round trip changed violations %d -> %d", p.Violations(), q.Violations())
	}
	return nil
}
