package geom

import (
	"math"
	"slices"
	"testing"
)

func TestLabeledDataset(t *testing.T) {
	ld := LabeledDataset{Points: []LabeledPoint{
		{P: Point{1, 1}, Label: Positive},
		{P: Point{0, 0}, Label: Negative},
	}}
	ws := ld.Weighted()
	if len(ws) != 2 {
		t.Fatalf("Weighted has %d points, want 2", len(ws))
	}
	for _, wp := range ws {
		if wp.Weight != 1 {
			t.Error("Weighted should assign unit weights")
		}
	}
}

func TestWeightedSetValidateAndTotal(t *testing.T) {
	ws := WeightedSet{
		{P: Point{1, 2}, Label: Positive, Weight: 3},
		{P: Point{0, 0}, Label: Negative, Weight: 2},
	}
	if err := ws.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := ws.TotalWeight(); got != 5 {
		t.Errorf("TotalWeight = %g, want 5", got)
	}
	bad := WeightedSet{{P: Point{1}, Label: Positive, Weight: -1}}
	if err := bad.Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	mixed := WeightedSet{{P: Point{1}, Label: Positive, Weight: 1}, {P: Point{1, 2}, Label: Positive, Weight: 1}}
	if err := mixed.Validate(); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if ws.Dim() != 2 || (WeightedSet{}).Dim() != 0 {
		t.Error("Dim wrong")
	}
}

func TestCoalesce(t *testing.T) {
	ws := WeightedSet{
		{P: Point{1, 2}, Label: Positive, Weight: 1},
		{P: Point{1, 2}, Label: Positive, Weight: 2},
		{P: Point{1, 2}, Label: Negative, Weight: 4}, // same point, other label: kept separate
		{P: Point{3, 4}, Label: Positive, Weight: 8},
	}
	got, entry := ws.Coalesce()
	if len(got) != 3 {
		t.Fatalf("Coalesce len = %d, want 3", len(got))
	}
	if want := []int{0, 0, 1, 2}; !slices.Equal(entry, want) {
		t.Fatalf("Coalesce entries = %v, want %v", entry, want)
	}
	if got.TotalWeight() != ws.TotalWeight() {
		t.Error("Coalesce changed total weight")
	}
	// w-err of any classifier must be preserved; spot-check two.
	allPos := func(Point) Label { return Positive }
	allNeg := func(Point) Label { return Negative }
	if WErr(ws, allPos) != WErr(got, allPos) || WErr(ws, allNeg) != WErr(got, allNeg) {
		t.Error("Coalesce changed w-err")
	}
	// −0 and +0 are equal coordinates but distinct entries.
	nz := math.Copysign(0, -1)
	signed := WeightedSet{
		{P: Point{0, 1}, Label: Positive, Weight: 1},
		{P: Point{nz, 1}, Label: Positive, Weight: 2},
		{P: Point{0, 1}, Label: Positive, Weight: 4},
		{P: Point{nz, 1}, Label: Positive, Weight: 8},
	}
	got, entry = signed.Coalesce()
	if want := []int{0, 1, 0, 1}; !slices.Equal(entry, want) || len(got) != 2 || got[0].Weight != 5 || got[1].Weight != 10 {
		t.Fatalf("signed zeros: entries %v, set %v; want %v and weights 5, 10", entry, got, want)
	}
	if math.Signbit(got[0].P[0]) || !math.Signbit(got[1].P[0]) {
		t.Fatal("signed zeros: an entry lost its zero's sign")
	}
}
