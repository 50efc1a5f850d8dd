// Package monoclass is a Go implementation of the algorithms in
// "New Algorithms for Monotone Classification" (Yufei Tao and Yu Wang,
// PODS 2021).
//
// Monotone classification: the input is a set P of n points in R^d,
// each carrying a hidden or given binary label. A classifier
// h : R^d -> {0,1} is monotone when h(p) >= h(q) whenever p dominates
// q coordinate-wise. The goal is a monotone classifier mis-labeling as
// few input points as possible — the natural model for explainable
// similarity-based entity matching, record linkage and duplicate
// detection, where a pair that scores at least as high on every
// similarity metric must not receive a worse verdict.
//
// The package exposes the paper's two problem settings:
//
//   - Passive (Theorem 4): all labels are given; OptimalPassive finds
//     an exactly optimal monotone classifier in polynomial time via a
//     min-cut reduction.
//   - Active (Theorems 2 and 3): labels are hidden behind a unit-cost
//     probing Oracle; ActiveLearn finds a (1+ε)-approximate monotone
//     classifier with high probability while probing only
//     O((w/ε²)·log n·log(n/w)) labels, where w is the dominance width
//     of P. Theorem 1 shows Ω(n) probes are unavoidable for exact
//     optimality, so the approximation is what makes probing savings
//     possible at all.
//
// See the examples/ directory for runnable walk-throughs, and
// DESIGN.md / EXPERIMENTS.md for the reproduction methodology.
package monoclass

import (
	"io"

	"monoclass/internal/chains"
	"monoclass/internal/classifier"
	"monoclass/internal/geom"
)

// Core geometric and label types. These are aliases of the engine's
// internal types, so values flow between the public API and the
// internal packages with no conversion.
type (
	// Point is a point in R^d; its length is the dimensionality.
	Point = geom.Point
	// Label is a binary class label (0 or 1).
	Label = geom.Label
	// LabeledPoint is a point with a revealed label.
	LabeledPoint = geom.LabeledPoint
	// WeightedPoint is a labeled point with a positive finite weight.
	WeightedPoint = geom.WeightedPoint
	// WeightedSet is a fully-labeled weighted point set: the input of
	// the passive problem.
	WeightedSet = geom.WeightedSet
)

// The two labels.
const (
	// Negative is label 0 (non-match / reject).
	Negative = geom.Negative
	// Positive is label 1 (match / accept).
	Positive = geom.Positive
)

// Classifier is a total binary classifier on R^d.
type Classifier = classifier.Classifier

// AnchorSet is the canonical monotone classifier representation: it
// classifies x positive iff x dominates one of a finite antichain of
// anchor points. Both training entry points return classifiers in this
// form.
type AnchorSet = classifier.AnchorSet

// Threshold1D is the one-dimensional monotone classifier
// h(p) = 1 iff p > Tau (Eq. (6) of the paper).
type Threshold1D = classifier.Threshold1D

// NewAnchorSet builds an anchor classifier over dim-dimensional
// points; redundant anchors are pruned to the minimal antichain.
func NewAnchorSet(dim int, anchors []Point) (*AnchorSet, error) {
	return classifier.NewAnchorSet(dim, anchors)
}

// Dominates reports whether p dominates q: p[i] >= q[i] on every
// dimension. A point dominates itself.
func Dominates(p, q Point) bool { return geom.Dominates(p, q) }

// Comparable reports whether p and q are related under dominance in
// either direction.
func Comparable(p, q Point) bool { return geom.Comparable(p, q) }

// Err returns err_P(h): how many labeled points h mis-classifies.
func Err(pts []LabeledPoint, h Classifier) int { return geom.Err(pts, h.Classify) }

// WErr returns w-err_P(h): the total weight of points h
// mis-classifies.
func WErr(ws WeightedSet, h Classifier) float64 { return geom.WErr(ws, h.Classify) }

// IsMonotoneOn audits h's monotonicity over a finite probe set,
// returning the first violating dominance pair if any.
func IsMonotoneOn(pts []Point, h Classifier) (ok bool, p, q Point) {
	return classifier.IsMonotoneOn(pts, h)
}

// Decomposition is a minimum chain decomposition with its maximum
// antichain certificate (Dilworth's theorem / Lemma 6 of the paper),
// or past ChainDecompose's limit a greedy cover with none.
type Decomposition = chains.Decomposition

// ChainDecompose partitions pts into the minimum number of dominance
// chains — exactly DominanceWidth(pts) of them — and returns a maximum
// antichain of the same size as certificate. Dimensions 1 and 2 run in
// O(n log n); higher dimensions in O(dn² + n^2.5) up to 65,536 points
// (a 256 MiB bit triangle at the limit). Past that limit it returns a greedy
// cover, possibly wider than the width, with a nil Antichain.
func ChainDecompose(pts []Point) Decomposition { return chains.Decompose(pts) }

// DominanceWidth returns the size of the largest antichain of pts,
// the parameter w governing active probing cost. At d ≥ 3 past
// ChainDecompose's 65,536-point limit it returns the greedy cover's
// chain count, an upper bound on the width.
func DominanceWidth(pts []Point) int { return chains.Width(pts) }

// BestThreshold1D exactly solves the passive problem for d = 1 in
// O(n log n): the threshold classifier of minimum weighted error.
func BestThreshold1D(ws WeightedSet) (Threshold1D, float64) {
	return classifier.BestThreshold1D(ws)
}

// SaveModel serializes an anchor classifier as versioned JSON, the
// library's interchange format for trained models.
func SaveModel(w io.Writer, h *AnchorSet) error { return classifier.WriteModel(w, h) }

// LoadModel deserializes a classifier written by SaveModel.
func LoadModel(r io.Reader) (*AnchorSet, error) { return classifier.ReadModel(r) }
