// Package passive solves Problem 2 (passive weighted monotone
// classification) in polynomial time, implementing Theorem 4 of the
// paper: O(dn²) to build a flow network over the contending points,
// plus one max-flow computation; the minimum cut-edge set encodes an
// optimal monotone classifier.
//
// The construction (Section 5.1):
//
//	source --w(p)--> p        for each contending label-0 point p
//	q --w(q)--> sink          for each contending label-1 point q
//	p --∞--> q                for each contending pair p ⪰ q with
//	                          label(p)=0, label(q)=1
//
// A minimum cut never uses an ∞ edge (Lemma 18); cutting (source, p)
// means mis-classifying p as 1, cutting (q, sink) means mis-classifying
// q as 0. Lemmas 16 and 17 prove the resulting assignment is monotone
// and optimal. Non-contending points keep their own labels (Lemma 15).
//
// Prepare builds the network once, with an equivalent O(m·w)-edge set
// of ∞ edges (sparse.go), and Resolve solves it; internal/problem owns
// the validated input, the dominance view and the chain cover Prepare
// consumes. PrepareLiteral and NaiveSolve are the references it is
// checked against.
package passive

import (
	"monoclass/internal/classifier"
	"monoclass/internal/geom"
)

// Stats reports instance measurements from a Resolve call, used by the
// experiment harness.
type Stats struct {
	N          int     // input points
	Contending int     // |P^con|
	GraphEdges int     // edges of the constructed network
	FlowValue  float64 // max-flow value: the optimal weighted error, rounded in the solver's order
	Solver     string  // flow solver used: "pushrelabelhl" (default) or "custom"
}

// Solution is the result of solving Problem 2.
type Solution struct {
	// Classifier is an optimal monotone classifier, represented by its
	// minimal positive anchors; it is total on R^d.
	Classifier *classifier.AnchorSet
	// WErr is the optimal weighted error w-err_P(Classifier): the
	// weights of the misclassified points summed in input order, bit
	// for bit what geom.WErr rescoring Classifier returns.
	WErr float64
	// Assignment holds the classifier's value on each input point, in
	// input order.
	Assignment []geom.Label
	// Stats carries instance measurements.
	Stats Stats
}
