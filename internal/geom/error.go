package geom

// ClassifyFunc is the minimal view of a classifier that the error
// functionals need: a total function from points to labels. The
// classifier package provides monotone implementations.
type ClassifyFunc func(Point) Label

// Err computes err_P(h) of Eq. (1): the number of labeled points whose
// label differs from h's prediction.
func Err(pts []LabeledPoint, h ClassifyFunc) int {
	errs := 0
	for _, lp := range pts {
		if h(lp.P) != lp.Label {
			errs++
		}
	}
	return errs
}

// WErr computes w-err_P(h) of Eq. (3): the total weight of
// mis-classified points.
func WErr(ws WeightedSet, h ClassifyFunc) float64 {
	var sum float64
	for _, wp := range ws {
		if h(wp.P) != wp.Label {
			sum += wp.Weight
		}
	}
	return sum
}

// MonotoneViolations counts ordered pairs (i, j) with point i
// dominating point j while label(i) < label(j). A labeled set admits a
// zero-error monotone classifier if and only if the count is zero.
func MonotoneViolations(pts []LabeledPoint) int {
	count := 0
	for i := range pts {
		if pts[i].Label != Negative {
			continue
		}
		for j := range pts {
			if i == j || pts[j].Label != Positive {
				continue
			}
			if Dominates(pts[i].P, pts[j].P) {
				count++
			}
		}
	}
	return count
}
