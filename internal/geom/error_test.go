package geom

import "testing"

// threshold1D builds the 1-D classifier of Eq. (6): h(p) = 1 iff p > tau.
func threshold1D(tau float64) ClassifyFunc {
	return func(p Point) Label {
		if p[0] > tau {
			return Positive
		}
		return Negative
	}
}

func TestErr(t *testing.T) {
	pts := []LabeledPoint{
		{P: Point{1}, Label: Negative},
		{P: Point{2}, Label: Negative},
		{P: Point{3}, Label: Positive},
		{P: Point{4}, Label: Negative}, // out of order: violates monotonicity
		{P: Point{5}, Label: Positive},
	}
	if got := Err(pts, threshold1D(2)); got != 1 { // mis-classifies only point 4
		t.Errorf("err at tau=2: got %d, want 1", got)
	}
	if got := Err(pts, threshold1D(10)); got != 2 { // misses both positives
		t.Errorf("err at tau=10: got %d, want 2", got)
	}
	if got := Err(pts, threshold1D(0)); got != 3 { // all negatives wrong
		t.Errorf("err at tau=0: got %d, want 3", got)
	}
}

func TestWErrMatchesErrOnUnitWeights(t *testing.T) {
	pts := []LabeledPoint{
		{P: Point{1}, Label: Positive},
		{P: Point{2}, Label: Negative},
		{P: Point{3}, Label: Positive},
	}
	ld := &LabeledDataset{Points: pts}
	ws := ld.Weighted()
	for _, tau := range []float64{0, 1, 2, 3, 4} {
		h := threshold1D(tau)
		if float64(Err(pts, h)) != WErr(ws, h) {
			t.Errorf("tau=%g: WErr on unit weights disagrees with Err", tau)
		}
	}
}

func TestWErrWeights(t *testing.T) {
	ws := WeightedSet{
		{P: Point{1}, Label: Positive, Weight: 100}, // mis-classified by tau=1
		{P: Point{2}, Label: Negative, Weight: 60},  // correctly classified
	}
	if got := WErr(ws, threshold1D(1)); got != 160 {
		// tau=1: h(1)=0 (wrong, +100), h(2)=1 (wrong, +60)
		t.Errorf("WErr = %g, want 160", got)
	}
	if got := WErr(ws, threshold1D(0)); got != 60 {
		// tau=0: h(1)=1 (right), h(2)=1 (wrong, +60)
		t.Errorf("WErr = %g, want 60", got)
	}
	if got := WErr(ws, threshold1D(2)); got != 100 {
		// tau=2: h(1)=0 (wrong, +100), h(2)=0 (right)
		t.Errorf("WErr = %g, want 100", got)
	}
}

func TestMonotoneViolations(t *testing.T) {
	clean := []LabeledPoint{
		{P: Point{0, 0}, Label: Negative},
		{P: Point{1, 1}, Label: Positive},
	}
	if got := MonotoneViolations(clean); got != 0 {
		t.Errorf("clean set: %d violations, want 0", got)
	}
	dirty := []LabeledPoint{
		{P: Point{1, 1}, Label: Negative}, // dominates a positive
		{P: Point{0, 0}, Label: Positive},
		{P: Point{2, 2}, Label: Negative}, // dominates the same positive
	}
	if got := MonotoneViolations(dirty); got != 2 {
		t.Errorf("dirty set: %d violations, want 2", got)
	}
}
