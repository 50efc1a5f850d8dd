// Package geom provides the geometric foundations of monotone
// classification: d-dimensional points, the dominance partial order,
// labeled and weighted point sets, and the error functionals err_P and
// w-err_P defined in Section 1.1 of the paper.
//
// All structures are plain values; none of them carry hidden state. The
// dominance order ⪰ is the coordinate-wise order: p dominates q when
// p[i] >= q[i] on every dimension i.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a point in R^d. The dimensionality is the slice length.
type Point []float64

// Label is a binary class label: 0 or 1.
type Label uint8

// The two possible labels.
const (
	Negative Label = 0 // label 0: non-match / reject
	Positive Label = 1 // label 1: match / accept
)

// String returns "0" or "1".
func (l Label) String() string {
	if l == Positive {
		return "1"
	}
	return "0"
}

// Valid reports whether l is one of the two legal labels.
func (l Label) Valid() bool { return l == Negative || l == Positive }

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Dim returns the dimensionality of p.
func (p Point) Dim() int { return len(p) }

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String formats p as "(x1, x2, ..., xd)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Dominates reports whether p ⪰ q, i.e. p[i] >= q[i] for every
// dimension i. A point dominates itself. Dominates panics if the two
// points have different dimensionalities, which always indicates a bug
// in the caller.
func Dominates(p, q Point) bool {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch: %d vs %d", len(p), len(q)))
	}
	for i := range p {
		if p[i] < q[i] {
			return false
		}
	}
	return true
}

// StrictlyDominates reports whether p ⪰ q and p != q.
func StrictlyDominates(p, q Point) bool {
	return Dominates(p, q) && !p.Equal(q)
}

// Comparable reports whether p and q are related under dominance in
// either direction (p ⪰ q or q ⪰ p). Two points that are not comparable
// can live together in an anti-chain.
func Comparable(p, q Point) bool {
	return Dominates(p, q) || Dominates(q, p)
}

// LabeledPoint is a point together with its (revealed) binary label.
type LabeledPoint struct {
	P     Point
	Label Label
}

// WeightedPoint is a labeled point carrying a positive finite weight,
// the unit of the weighted error w-err_P in Eq. (3) of the paper.
type WeightedPoint struct {
	P      Point
	Label  Label
	Weight float64
}

// Validate reports an error when a coordinate is NaN, the weight is
// not positive and finite, or the label is not binary. A NaN
// coordinate would make the point dominate and be dominated by every
// point it meets, so dominance would stop being a partial order —
// the property chain decompositions and the Section 5.1 network rely
// on. ±Inf coordinates are ordered and stay legal.
func (wp WeightedPoint) Validate() error {
	for k, v := range wp.P {
		if math.IsNaN(v) {
			return fmt.Errorf("geom: coordinate %d is NaN", k)
		}
	}
	if !wp.Label.Valid() {
		return fmt.Errorf("geom: invalid label %d", wp.Label)
	}
	if wp.Weight <= 0 || math.IsInf(wp.Weight, 0) || math.IsNaN(wp.Weight) {
		return fmt.Errorf("geom: weight must be positive and finite, got %g", wp.Weight)
	}
	return nil
}
