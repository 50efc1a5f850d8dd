// Package quantize provides score-quantization preprocessing for
// active monotone classification. Theorem 2 prices the labeling
// budget at O((w/ε²)·polylog), and continuous similarity scores
// produce wide posets (few comparable pairs, large w). Snapping each
// coordinate to a small grid collapses the width — often by an order
// of magnitude — at the cost of merging points the classifier can no
// longer distinguish, i.e. a (usually small) increase in the best
// achievable error k*. The Tradeoff helper quantifies exactly that
// exchange so callers can pick a level deliberately.
//
// Quantization is monotone coordinate-wise, so it preserves dominance:
// p ⪰ q implies Q(p) ⪰ Q(q). A classifier trained on the quantized
// space is composed with Q at prediction time and therefore remains a
// monotone classifier on the original space.
package quantize

import (
	"fmt"
	"math"

	"monoclass/internal/chains"
	"monoclass/internal/classifier"
	"monoclass/internal/geom"
)

// Uniform snaps every coordinate to the grid {0, 1/levels, ...,
// 1}-scaled to the coordinate's [min, max] range: value v maps to
// round((v-min)/(max-min)·levels)/levels·(max-min)+min. It returns a
// new point slice; the input is untouched. levels must be at least 1.
func Uniform(pts []geom.Point, levels int) []geom.Point {
	if levels < 1 {
		panic(fmt.Sprintf("quantize: levels %d must be at least 1", levels))
	}
	if len(pts) == 0 {
		return nil
	}
	d := len(pts[0])
	mins := make([]float64, d)
	maxs := make([]float64, d)
	for k := 0; k < d; k++ {
		mins[k] = math.Inf(1)
		maxs[k] = math.Inf(-1)
	}
	for _, p := range pts {
		for k, v := range p {
			if v < mins[k] {
				mins[k] = v
			}
			if v > maxs[k] {
				maxs[k] = v
			}
		}
	}
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		q := make(geom.Point, d)
		for k, v := range p {
			span := maxs[k] - mins[k]
			if span == 0 {
				q[k] = mins[k]
				continue
			}
			q[k] = math.Round((v-mins[k])/span*float64(levels))/float64(levels)*span + mins[k]
		}
		out[i] = q
	}
	return out
}

// Composed wraps a classifier trained on quantized points so it
// accepts raw points: prediction quantizes first. The wrapper is
// monotone whenever the inner classifier is, because the quantizer is
// a coordinate-wise monotone map.
type Composed struct {
	Inner classifier.Classifier
	Quant func(geom.Point) geom.Point
}

// Classify implements classifier.Classifier.
func (c Composed) Classify(p geom.Point) geom.Label { return c.Inner.Classify(c.Quant(p)) }

// LevelStats summarizes the effect of one quantization level.
type LevelStats struct {
	Levels int
	Width  int     // dominance width after quantization
	KStar  float64 // optimal error achievable on the quantized points
}

// Tradeoff evaluates a sweep of quantization levels on a labeled set,
// reporting the width reduction and the cost in optimal error.
// kstarFn computes the optimal error of a weighted set (callers pass
// the passive solver; injected to avoid an import cycle).
func Tradeoff(lab []geom.LabeledPoint, levels []int, kstarFn func(geom.WeightedSet) (float64, error)) ([]LevelStats, error) {
	var out []LevelStats
	for _, lv := range levels {
		pts := make([]geom.Point, len(lab))
		for i, lp := range lab {
			pts[i] = lp.P
		}
		qpts := Uniform(pts, lv)
		ws := make(geom.WeightedSet, len(lab))
		for i := range lab {
			ws[i] = geom.WeightedPoint{P: qpts[i], Label: lab[i].Label, Weight: 1}
		}
		kstar, err := kstarFn(ws)
		if err != nil {
			return nil, err
		}
		out = append(out, LevelStats{Levels: lv, Width: chains.Width(qpts), KStar: kstar})
	}
	return out, nil
}
