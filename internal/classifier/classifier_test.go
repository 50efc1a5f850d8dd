package classifier

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/geom"
)

func TestThreshold1D(t *testing.T) {
	h := Threshold1D{Tau: 2}
	if h.Classify(geom.Point{3}) != geom.Positive {
		t.Error("3 > 2 should be positive")
	}
	if h.Classify(geom.Point{2}) != geom.Negative {
		t.Error("boundary must be negative (strict >)")
	}
	if h.Classify(geom.Point{1}) != geom.Negative {
		t.Error("1 should be negative")
	}
	allPos := Threshold1D{Tau: math.Inf(-1)}
	if allPos.Classify(geom.Point{-1e18}) != geom.Positive {
		t.Error("-Inf threshold should classify everything positive")
	}
	if h.String() == "" {
		t.Error("empty String")
	}
}

func TestThreshold1DPanicsOnWrongDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Threshold1D{}.Classify(geom.Point{1, 2})
}

func TestAnchorSetBasics(t *testing.T) {
	h := MustAnchorSet(2, []geom.Point{{1, 1}})
	cases := []struct {
		p    geom.Point
		want geom.Label
	}{
		{geom.Point{1, 1}, geom.Positive}, // equal to anchor
		{geom.Point{2, 1}, geom.Positive},
		{geom.Point{0, 5}, geom.Negative},
		{geom.Point{0, 0}, geom.Negative},
	}
	for _, c := range cases {
		if got := h.Classify(c.p); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if h.Dim() != 2 {
		t.Error("Dim wrong")
	}
	if h.String() == "" {
		t.Error("String empty")
	}
}

func TestAnchorSetPruning(t *testing.T) {
	h := MustAnchorSet(2, []geom.Point{
		{1, 1},
		{2, 2}, // dominates (1,1): redundant
		{1, 1}, // duplicate: dropped
		{0, 3}, // incomparable: kept
	})
	if got := len(h.Anchors()); got != 2 {
		t.Errorf("anchors after pruning = %d, want 2", got)
	}
	// Pruning must not change the classification anywhere.
	full := MustAnchorSet(2, []geom.Point{{1, 1}, {2, 2}, {1, 1}, {0, 3}})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		p := geom.Point{rng.Float64() * 4, rng.Float64() * 4}
		if h.Classify(p) != full.Classify(p) {
			t.Fatalf("pruning changed classification at %v", p)
		}
	}
}

func TestConstClassifiers(t *testing.T) {
	neg := ConstNegative(3)
	pos := ConstPositive(3)
	pts := []geom.Point{{0, 0, 0}, {-1e9, 5, 2}, {1e9, 1e9, 1e9}}
	for _, p := range pts {
		if neg.Classify(p) != geom.Negative {
			t.Errorf("ConstNegative(%v) wrong", p)
		}
		if pos.Classify(p) != geom.Positive {
			t.Errorf("ConstPositive(%v) wrong", p)
		}
	}
}

func TestNewAnchorSetErrors(t *testing.T) {
	if _, err := NewAnchorSet(0, nil); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := NewAnchorSet(2, []geom.Point{{1}}); err == nil {
		t.Error("anchor dimension mismatch accepted")
	}
}

func TestAnchorSetClassifyPanicsOnWrongDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ConstNegative(2).Classify(geom.Point{1})
}

func TestAnchorSetIsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	anchors := []geom.Point{{1, 3}, {3, 1}, {2, 2}}
	h := MustAnchorSet(2, anchors)
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Point{float64(rng.Intn(6)), float64(rng.Intn(6))}
	}
	if ok, p, q := IsMonotoneOn(pts, h); !ok {
		t.Errorf("AnchorSet violated monotonicity: h(%v)=0 but h(%v)=1 with %v ⪰ %v", p, q, p, q)
	}
}

type rogueClassifier struct{}

// Classify is deliberately non-monotone: positive iff x+y is even.
func (rogueClassifier) Classify(p geom.Point) geom.Label {
	if int(p[0]+p[1])%2 == 0 {
		return geom.Positive
	}
	return geom.Negative
}

func TestIsMonotoneOnDetectsViolation(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 0}, {1, 1}}
	ok, p, q := IsMonotoneOn(pts, rogueClassifier{})
	if ok {
		t.Fatal("non-monotone classifier passed the audit")
	}
	if !geom.Dominates(p, q) {
		t.Error("reported violation pair is not a dominance pair")
	}
}

func TestFromAssignment(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}, {2, 0}, {0, 2}}
	assign := []geom.Label{0, 1, 0, 1}
	h, err := FromAssignment(pts, assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if h.Classify(p) != assign[i] {
			t.Errorf("point %d: classified %v, want %v", i, h.Classify(p), assign[i])
		}
	}
	// (3,3) dominates the positive (1,1): must be positive.
	if h.Classify(geom.Point{3, 3}) != geom.Positive {
		t.Error("extension not monotone upward")
	}
}

func TestFromAssignmentRejectsInconsistent(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}}
	// (1,1) assigned 0 while dominated (0,0) assigned 1: impossible.
	if _, err := FromAssignment(pts, []geom.Label{1, 0}, nil); err == nil {
		t.Error("non-monotone assignment accepted")
	}
	if _, err := FromAssignment(pts, []geom.Label{1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromAssignment(nil, nil, nil); err == nil {
		t.Error("empty assignment accepted")
	}
	if _, err := FromAssignment(pts, []geom.Label{0, 9}, nil); err == nil {
		t.Error("invalid label accepted")
	}
}

// TestFromAssignmentCoverDecode: handing the skyline only each chain's
// lowest 1-assigned member changes nothing observable. Over random
// sets (d = 1..4, duplicates, ±Inf) and assignments that are monotone
// (upward closures of random anchor sets), monotone but for one flip,
// or random, the minimum cover, the greedy cover and a cover whose
// coordinate-equal runs are reversed return the nil cover's anchors in
// the nil cover's order, or fail with its error; so does an invalid
// label.
func TestFromAssignmentCoverDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	failures := 0
	for trial := 0; trial < 600; trial++ {
		d := 1 + rng.Intn(4)
		n := 1 + rng.Intn(70)
		pts := make([]geom.Point, n)
		for i := range pts {
			if i > 0 && rng.Intn(4) == 0 {
				pts[i] = pts[rng.Intn(i)].Clone()
				continue
			}
			p := make(geom.Point, d)
			for k := range p {
				p[k] = float64(rng.Intn(4))
				if rng.Intn(15) == 0 {
					p[k] = math.Inf(1 - 2*rng.Intn(2))
				}
			}
			pts[i] = p
		}
		assign := make([]geom.Label, n)
		seeds := make([]geom.Point, rng.Intn(4))
		for a := range seeds {
			seeds[a] = pts[rng.Intn(n)]
		}
		for i, p := range pts {
			for _, s := range seeds {
				if geom.Dominates(p, s) {
					assign[i] = geom.Positive
				}
			}
		}
		switch trial % 4 {
		case 1:
			assign[rng.Intn(n)] ^= 1
		case 2:
			for i := range assign {
				assign[i] = geom.Label(rng.Intn(2))
			}
		case 3:
			if trial%8 == 3 {
				assign[rng.Intn(n)] = 2
			}
		}
		minimum := chains.Decompose(pts).Chains
		covers := map[string][][]int{
			"minimum":  minimum,
			"greedy":   chains.GreedyDecompose(pts),
			"reversed": reverseEqualRuns(pts, minimum),
		}
		want, wantErr := FromAssignment(pts, assign, nil)
		if wantErr != nil {
			failures++
		}
		for name, cover := range covers {
			if err := chains.ValidateDecomposition(pts, cover); err != nil {
				t.Fatalf("trial %d: %s cover invalid: %v", trial, name, err)
			}
			got, err := FromAssignment(pts, assign, cover)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("trial %d: %s cover: error %v, nil cover %v", trial, name, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(got.Anchors(), want.Anchors()) {
				t.Fatalf("trial %d: %s cover: anchors %v, nil cover %v", trial, name, got.Anchors(), want.Anchors())
			}
		}
	}
	if failures < 100 {
		t.Fatalf("only %d of 600 trials exercised a rejected assignment", failures)
	}
}

// reverseEqualRuns returns a copy of cover with every run of
// coordinate-equal chain neighbours reversed: still a valid cover,
// but its duplicates no longer ascend by index.
func reverseEqualRuns(pts []geom.Point, cover [][]int) [][]int {
	out := make([][]int, len(cover))
	for c, chain := range cover {
		chain = slices.Clone(chain)
		for lo := 0; lo < len(chain); {
			hi := lo + 1
			for hi < len(chain) && pts[chain[hi]].Equal(pts[chain[lo]]) {
				hi++
			}
			slices.Reverse(chain[lo:hi])
			lo = hi
		}
		out[c] = chain
	}
	return out
}

func TestBestThreshold1DExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		ws := make(geom.WeightedSet, n)
		for i := range ws {
			ws[i] = geom.WeightedPoint{
				P:      geom.Point{float64(rng.Intn(8))},
				Label:  geom.Label(rng.Intn(2)),
				Weight: float64(1 + rng.Intn(5)),
			}
		}
		h, got := BestThreshold1D(ws)
		// Exhaustive check over the effective classifier set.
		best := math.Inf(1)
		taus := []float64{math.Inf(-1)}
		for _, wp := range ws {
			taus = append(taus, wp.P[0])
		}
		for _, tau := range taus {
			e := geom.WErr(ws, Threshold1D{Tau: tau}.Classify)
			if e < best {
				best = e
			}
		}
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("trial %d: BestThreshold1D err %g, want %g", trial, got, best)
		}
		if e := geom.WErr(ws, h.Classify); math.Abs(e-got) > 1e-9 {
			t.Fatalf("trial %d: reported err %g but classifier achieves %g", trial, got, e)
		}
	}
}

func TestBestThreshold1DEmptyAndPure(t *testing.T) {
	h, e := BestThreshold1D(nil)
	if e != 0 || !math.IsInf(h.Tau, -1) {
		t.Error("empty set should yield the all-positive classifier at zero error")
	}
	pure := geom.WeightedSet{
		{P: geom.Point{1}, Label: geom.Positive, Weight: 1},
		{P: geom.Point{2}, Label: geom.Positive, Weight: 1},
	}
	h, e = BestThreshold1D(pure)
	if e != 0 {
		t.Errorf("pure positive set: err %g, want 0", e)
	}
	if h.Classify(geom.Point{1}) != geom.Positive {
		t.Error("pure positive set: classifier must accept all points")
	}
	pureNeg := geom.WeightedSet{
		{P: geom.Point{1}, Label: geom.Negative, Weight: 1},
	}
	_, e = BestThreshold1D(pureNeg)
	if e != 0 {
		t.Errorf("pure negative set: err %g, want 0", e)
	}
}

func TestBestThreshold1DDuplicateCoordinates(t *testing.T) {
	// Points sharing a coordinate must flip together during the sweep.
	ws := geom.WeightedSet{
		{P: geom.Point{1}, Label: geom.Negative, Weight: 5},
		{P: geom.Point{1}, Label: geom.Positive, Weight: 1},
		{P: geom.Point{2}, Label: geom.Positive, Weight: 3},
	}
	h, e := BestThreshold1D(ws)
	// tau=1: errors = pos at 1 (w=1). tau=-inf: neg at 1 (w=5).
	// tau=2: 1 + 3 = 4.
	if e != 1 || h.Tau != 1 {
		t.Errorf("got tau=%g err=%g, want tau=1 err=1", h.Tau, e)
	}
}

func TestFuncAdapter(t *testing.T) {
	pts := []geom.LabeledPoint{
		{P: geom.Point{0}, Label: geom.Negative},
		{P: geom.Point{5}, Label: geom.Positive},
	}
	if geom.Err(pts, Func(Threshold1D{Tau: 2})) != 0 {
		t.Error("Func adapter broken")
	}
}
