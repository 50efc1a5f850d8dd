package classidx

import (
	"fmt"

	"monoclass/internal/geom"
)

// ClassifyBatchInto classifies every point of pts into dst, which must
// have the same length; dst[i] is always the label of pts[i]. It
// panics on length or dimension mismatches, checked before any point
// is classified.
//
// The kernel classifies point by point in the given order through the
// layout's own classify, with the layout switch and the dimension
// check hoisted out of the loop: no sorting, reordering, or
// allocation. Safe for concurrent use: all state is local.
func (ix *Index) ClassifyBatchInto(dst []geom.Label, pts []geom.Point) {
	if len(dst) != len(pts) {
		panic(fmt.Sprintf("classidx: dst length %d != batch length %d", len(dst), len(pts)))
	}
	for i, p := range pts {
		if len(p) != ix.dim {
			panic(fmt.Sprintf("classidx: batch point %d has dimension %d, want %d", i, len(p), ix.dim))
		}
	}
	switch ix.kind {
	case layoutEmpty:
		for i := range dst {
			dst[i] = geom.Negative
		}
	case layout1D:
		for i, p := range pts {
			dst[i] = label(!(p[0] < ix.tau))
		}
	case layout2D:
		for i, p := range pts {
			dst[i] = ix.classify2D(p)
		}
	case layoutTiny:
		for i, p := range pts {
			dst[i] = ix.classifyTiny(p)
		}
	default:
		for i, p := range pts {
			dst[i] = ix.classifyBits(p)
		}
	}
}
