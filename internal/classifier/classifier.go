// Package classifier provides the monotone classifier representations
// used throughout the library.
//
// A classifier is a total function h : R^d -> {0,1}. It is monotone
// when h(p) >= h(q) whenever p dominates q (Section 1.1). Two concrete
// families cover everything the paper needs:
//
//   - Threshold1D: the 1-D form of Eq. (6), h(p) = 1 iff p > τ. Every
//     monotone classifier on R is of this form.
//   - AnchorSet: h(x) = 1 iff x dominates one of a finite set of
//     "anchor" points. Every monotone classifier restricted to a finite
//     point set P is realized by some anchor set (take the minimal
//     points mapped to 1), so this family is the canonical output
//     representation of both the passive and the active algorithms.
package classifier

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"monoclass/internal/classidx"
	"monoclass/internal/geom"
	"monoclass/internal/skyline"
)

// Classifier is a total binary classifier on R^d.
type Classifier interface {
	// Classify returns the predicted label of p.
	Classify(p geom.Point) geom.Label
}

// BatchClassifier is a Classifier with a vectorized entry point.
// ClassifyBatchInto fills dst[i] with the label of pts[i]; dst and pts
// must have equal length. Implementations are safe for concurrent use.
type BatchClassifier interface {
	Classifier
	ClassifyBatchInto(dst []geom.Label, pts []geom.Point)
}

// Func adapts a Classifier to the geom.ClassifyFunc form consumed by
// the error functionals.
func Func(h Classifier) geom.ClassifyFunc { return h.Classify }

// Threshold1D is the one-dimensional monotone classifier h^τ of
// Eq. (6): h(p) = 1 iff p[0] > Tau. Tau = -Inf yields the constant-1
// classifier; Tau = +Inf the constant-0 classifier.
type Threshold1D struct {
	Tau float64
}

// Classify implements Classifier. It panics on points that are not
// one-dimensional.
func (t Threshold1D) Classify(p geom.Point) geom.Label {
	if len(p) != 1 {
		panic(fmt.Sprintf("classifier: Threshold1D applied to %d-dimensional point", len(p)))
	}
	if p[0] > t.Tau {
		return geom.Positive
	}
	return geom.Negative
}

// String formats the classifier.
func (t Threshold1D) String() string { return fmt.Sprintf("h^{τ=%g}", t.Tau) }

// AnchorSet is the anchor-based monotone classifier: Classify(x) = 1
// iff x dominates (or equals) one of the anchors. The zero value (no
// anchors) is the constant-0 classifier.
//
// Every AnchorSet built through NewAnchorSet carries an immutable
// classification index (internal/classidx) constructed once at build
// time: sorted fast paths in 1-D/2-D and a bit-packed anchor matrix
// for d >= 3. The index is read-only after construction, so an
// AnchorSet is safe for concurrent use.
type AnchorSet struct {
	anchors []geom.Point
	dim     int
	idx     *classidx.Index
}

// NewAnchorSet builds an anchor classifier over points of dimension
// dim. Redundant anchors (those dominating another anchor) are pruned,
// so Anchors() returns an antichain of minimal positive points.
func NewAnchorSet(dim int, anchors []geom.Point) (*AnchorSet, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("classifier: dimension %d must be positive", dim)
	}
	for i, a := range anchors {
		if len(a) != dim {
			return nil, fmt.Errorf("classifier: anchor %d has dimension %d, want %d", i, len(a), dim)
		}
	}
	pruned := pruneToMinimal(anchors)
	return &AnchorSet{anchors: pruned, dim: dim, idx: classidx.Build(dim, pruned)}, nil
}

// MustAnchorSet is NewAnchorSet that panics on error.
func MustAnchorSet(dim int, anchors []geom.Point) *AnchorSet {
	a, err := NewAnchorSet(dim, anchors)
	if err != nil {
		panic(err)
	}
	return a
}

// ConstNegative returns the constant-0 classifier in dimension dim.
func ConstNegative(dim int) *AnchorSet { return MustAnchorSet(dim, nil) }

// ConstPositive returns the constant-1 classifier in dimension dim,
// realized by a single anchor at (-Inf, ..., -Inf).
func ConstPositive(dim int) *AnchorSet {
	bottom := make(geom.Point, dim)
	for i := range bottom {
		bottom[i] = math.Inf(-1)
	}
	return MustAnchorSet(dim, []geom.Point{bottom})
}

// pruneToMinimal removes every anchor that strictly dominates another
// anchor and deduplicates coordinate-equal anchors, leaving the minimal
// elements (an antichain). An anchor classifier only depends on the
// minimal anchors, since dominating a non-minimal anchor implies
// dominating a minimal one below it. The skyline package supplies the
// frontier (O(n log n) in 2-D).
func pruneToMinimal(anchors []geom.Point) []geom.Point {
	var out []geom.Point
	for _, idx := range skyline.Minimal(anchors) {
		out = append(out, anchors[idx].Clone())
	}
	return out
}

// Classify implements Classifier through the prebuilt index. The
// zero-value AnchorSet (no index) falls back to the scalar scan.
func (a *AnchorSet) Classify(p geom.Point) geom.Label {
	if a.idx != nil {
		return a.idx.Classify(p)
	}
	return a.ClassifyScalar(p)
}

// ClassifyScalar is the literal anchor scan — the reference semantics
// the indexed paths must reproduce. The conformance harness uses it as
// the differential oracle; hot paths should call Classify instead.
func (a *AnchorSet) ClassifyScalar(p geom.Point) geom.Label {
	if len(p) != a.dim {
		panic(fmt.Sprintf("classifier: AnchorSet(dim %d) applied to %d-dimensional point", a.dim, len(p)))
	}
	for _, anchor := range a.anchors {
		if geom.Dominates(p, anchor) {
			return geom.Positive
		}
	}
	return geom.Negative
}

// ClassifyBatchInto implements BatchClassifier: dst[i] receives the
// label of pts[i]. The batch kernel sorts the batch internally and
// shares dominance work across it, with zero steady-state allocations.
func (a *AnchorSet) ClassifyBatchInto(dst []geom.Label, pts []geom.Point) {
	if a.idx != nil {
		a.idx.ClassifyBatchInto(dst, pts)
		return
	}
	if len(dst) != len(pts) {
		panic(fmt.Sprintf("classifier: dst length %d != batch length %d", len(dst), len(pts)))
	}
	for i, p := range pts {
		dst[i] = a.ClassifyScalar(p)
	}
}

// Anchors returns the minimal anchor points. The caller must not
// modify the returned slices.
func (a *AnchorSet) Anchors() []geom.Point { return a.anchors }

// Dim returns the dimensionality of the classifier's domain.
func (a *AnchorSet) Dim() int { return a.dim }

// String summarizes the classifier.
func (a *AnchorSet) String() string {
	return fmt.Sprintf("AnchorSet(dim=%d, %d anchors)", a.dim, len(a.anchors))
}

// FromAssignment builds the anchor classifier induced by a label
// assignment over a finite point set: the anchors are the minimal
// points assigned 1. It fails when the assignment itself violates
// monotonicity on pts (a 0-assigned point dominating a 1-assigned
// point), because then no monotone extension agrees with it.
//
// cover, when non-nil, is a chain decomposition of pts, and only each
// chain's lowest 1-assigned member goes to the skyline: every
// 1-assigned point dominates the lowest one of its chain, so these
// candidates have the same minimal points. Where coordinate-equal
// members start a chain's 1-assigned run, the smallest index stands
// for them, which keeps the nil-cover anchor order. A nil cover means
// singleton chains. The consistency check runs at every point either
// way, so chains that do not ascend can cause an error but never a
// wrong classifier.
func FromAssignment(pts []geom.Point, assign []geom.Label, cover [][]int) (*AnchorSet, error) {
	if len(pts) != len(assign) {
		return nil, fmt.Errorf("classifier: %d points but %d labels", len(pts), len(assign))
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("classifier: empty assignment (dimension unknown)")
	}
	dim := len(pts[0])
	for i, l := range assign {
		if l != geom.Positive && l != geom.Negative {
			return nil, fmt.Errorf("classifier: invalid label %d at index %d", l, i)
		}
	}
	var pos []geom.Point
	if cover == nil {
		for i, p := range pts {
			if assign[i] == geom.Positive {
				pos = append(pos, p)
			}
		}
	} else {
		for _, i := range chainBottoms(pts, assign, cover) {
			pos = append(pos, pts[i])
		}
	}
	h, err := NewAnchorSet(dim, pos)
	if err != nil {
		return nil, err
	}
	// The anchor extension classifies p positive iff p dominates some
	// 1-assigned point; verify it reproduces the assignment (exactly
	// the monotone-consistency condition).
	for i, p := range pts {
		if h.Classify(p) != assign[i] {
			return nil, fmt.Errorf("classifier: assignment is not monotone-consistent at point %d (%v)", i, p)
		}
	}
	return h, nil
}

// chainBottoms returns, in increasing order, one index per chain of
// cover that holds a 1-assigned member: the lowest such member, or the
// smallest index among the coordinate-equal members its run starts
// with.
func chainBottoms(pts []geom.Point, assign []geom.Label, cover [][]int) []int {
	var out []int
	for _, chain := range cover {
		for k, idx := range chain {
			if assign[idx] != geom.Positive {
				continue
			}
			low := idx
			for _, j := range chain[k+1:] {
				if !pts[j].Equal(pts[idx]) {
					break
				}
				low = min(low, j)
			}
			out = append(out, low)
			break
		}
	}
	slices.Sort(out)
	return out
}

// IsMonotoneOn audits monotonicity of an arbitrary classifier over a
// finite probe set: for every ordered pair p ⪰ q it checks
// h(p) >= h(q). It returns the first violating pair, or ok = true.
// Cost is O(d·n²); intended for tests and validation, not hot paths.
func IsMonotoneOn(pts []geom.Point, h Classifier) (ok bool, p, q geom.Point) {
	labels := make([]geom.Label, len(pts))
	for i, pt := range pts {
		labels[i] = h.Classify(pt)
	}
	for i := range pts {
		if labels[i] != geom.Negative {
			continue
		}
		for j := range pts {
			if labels[j] != geom.Positive || i == j {
				continue
			}
			if geom.Dominates(pts[i], pts[j]) {
				return false, pts[i], pts[j]
			}
		}
	}
	return true, nil, nil
}

// BestThreshold1D computes, by exhaustive scan over the effective
// classifier set H_mono(P) of Eq. (7), a threshold minimizing the
// weighted error on a 1-D weighted set. It is the exact passive solver
// for d = 1 and runs in O(n log n). Ties are broken towards the
// smallest threshold, preferring -Inf.
func BestThreshold1D(ws geom.WeightedSet) (Threshold1D, float64) {
	if len(ws) == 0 {
		return Threshold1D{Tau: math.Inf(-1)}, 0
	}
	sorted := append(geom.WeightedSet(nil), ws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].P[0] < sorted[j].P[0] })

	// err(τ) = weight of positives with p <= τ + weight of negatives
	// with p > τ. Start at τ = -Inf: all points predicted 1, so the
	// error is the total negative weight. Sweeping τ rightwards past a
	// point flips its prediction to 0: positives start costing,
	// negatives stop.
	var errNow float64
	for _, wp := range sorted {
		if wp.Label == geom.Negative {
			errNow += wp.Weight
		}
	}
	bestTau := math.Inf(-1)
	bestErr := errNow
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].P[0] == sorted[i].P[0] {
			if sorted[j].Label == geom.Positive {
				errNow += sorted[j].Weight
			} else {
				errNow -= sorted[j].Weight
			}
			j++
		}
		if errNow < bestErr {
			bestErr = errNow
			bestTau = sorted[i].P[0]
		}
		i = j
	}
	return Threshold1D{Tau: bestTau}, bestErr
}
