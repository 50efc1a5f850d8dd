package lowerbound

import (
	"math"
	"testing"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/problem"
)

func TestLabels(t *testing.T) {
	ins := Instance{N: 8, Kind: Kind00, I: 2}
	got := ins.Labels()
	// Default: 1,0,1,0,1,0,1,0 — anomaly flips point 3 (index 2) to 0.
	want := []geom.Label{1, 0, 0, 0, 1, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("P00(2) labels = %v, want %v", got, want)
		}
	}
	ins = Instance{N: 8, Kind: Kind11, I: 3}
	got = ins.Labels()
	// Anomaly sets point 6 (index 5) to 1.
	want = []geom.Label{1, 0, 1, 0, 1, 1, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("P11(3) labels = %v, want %v", got, want)
		}
	}
}

// The optimal monotone error on every family instance must be exactly
// n/2 - 1 (verified against the exact passive solver).
func TestOptimalErrorMatchesSolver(t *testing.T) {
	const n = 12
	pts := Points(n)
	for _, ins := range Family(n) {
		labels := ins.Labels()
		ws := make(geom.WeightedSet, n)
		for i := range pts {
			ws[i] = geom.WeightedPoint{P: pts[i], Label: labels[i], Weight: 1}
		}
		sol, err := problem.Solve(ws)
		if err != nil {
			t.Fatal(err)
		}
		kstar := sol.WErr
		if int(kstar) != OptimalError(n) {
			t.Fatalf("%+v: k* = %g, want %d", ins, kstar, OptimalError(n))
		}
	}
}

func TestFamilySizeAndValidation(t *testing.T) {
	fam := Family(10)
	if len(fam) != 10 {
		t.Errorf("family size %d, want 10", len(fam))
	}
	count00 := 0
	for _, ins := range fam {
		if ins.Kind == Kind00 {
			count00++
		}
	}
	if count00 != 5 {
		t.Errorf("%d 00-inputs, want 5", count00)
	}
	for _, bad := range []int{3, 7, 2, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Family(%d) should panic", bad)
				}
			}()
			Family(bad)
		}()
	}
}

// Lemma 21: no classifier is optimal for both P00(i) and P11(i).
func TestLemma21NoCommonOptimum(t *testing.T) {
	for _, n := range []int{4, 8, 14} {
		for i := 1; i <= n/2; i++ {
			if !NoCommonOptimum(n, i) {
				t.Errorf("n=%d i=%d: a common optimum exists, contradicting Lemma 21", n, i)
			}
		}
	}
}

// The measured game must match the closed-form cost and accuracy of
// Lemma 19 exactly, for every budget ℓ.
func TestRunGameMatchesClosedForm(t *testing.T) {
	const n = 40
	for l := 0; l <= n/2; l++ {
		order := make([]int, l)
		for j := range order {
			order[j] = j + 1
		}
		res := RunGame(n, PairProbeStrategy{Order: order})
		if res.TotalCost != PredictedCost(n, l) {
			t.Errorf("ℓ=%d: cost %d, predicted %d", l, res.TotalCost, PredictedCost(n, l))
		}
		if res.NonOptCount != PredictedNonOpt(n, l) {
			t.Errorf("ℓ=%d: nonopt %d, predicted %d", l, res.NonOptCount, PredictedNonOpt(n, l))
		}
	}
}

// The quantitative heart of Theorem 1: any pair-probing budget that
// achieves nonoptcnt <= n/3 forces total cost Ω(n²), i.e. Ω(n) per
// instance.
func TestLowerBoundTradeoff(t *testing.T) {
	const n = 200
	for l := 0; l <= n/2; l++ {
		nonopt := PredictedNonOpt(n, l)
		cost := PredictedCost(n, l)
		if nonopt <= n/3 {
			// ℓ >= n/2 - n/3 = n/6, so cost >= n·n/6 - (n/6)² ~ 5n²/36.
			if cost < n*n/8 {
				t.Errorf("ℓ=%d: accurate strategy with cost %d < n²/8", l, cost)
			}
			if avg := float64(cost) / float64(n); avg < float64(n)/8 {
				t.Errorf("ℓ=%d: average cost %g not Ω(n)", l, avg)
			}
		}
	}
}

func TestPlayCatchesAnomaly(t *testing.T) {
	ins := Instance{N: 8, Kind: Kind11, I: 2}
	// Probing pair 2 first catches the anomaly at cost 1, optimally.
	cost, optimal := PairProbeStrategy{Order: []int{2, 1, 3}}.Play(ins)
	if cost != 1 || !optimal {
		t.Errorf("cost=%d optimal=%v, want 1/true", cost, optimal)
	}
	// Probing other pairs first pays for each miss.
	cost, optimal = PairProbeStrategy{Order: []int{1, 3, 2}}.Play(ins)
	if cost != 3 || !optimal {
		t.Errorf("cost=%d optimal=%v, want 3/true", cost, optimal)
	}
	// Never probing the anomaly: h_det is all-negative, which is
	// non-optimal exactly on 11-inputs.
	cost, optimal = PairProbeStrategy{Order: []int{1, 3}}.Play(ins)
	if cost != 2 || optimal {
		t.Errorf("cost=%d optimal=%v, want 2/false", cost, optimal)
	}
	ins00 := Instance{N: 8, Kind: Kind00, I: 2}
	_, optimal = PairProbeStrategy{Order: []int{1}}.Play(ins00)
	if !optimal {
		t.Error("all-negative h_det must be optimal for 00-inputs")
	}
}

func TestIsOptimal(t *testing.T) {
	ins := Instance{N: 8, Kind: Kind00, I: 1}
	// All-negative (tau >= 8) is optimal for 00-inputs.
	if !ins.IsOptimal(classifier.Threshold1D{Tau: 8}) {
		t.Error("all-negative should be optimal for P00")
	}
	// All-positive errs on the n/2+1 zeros of a 00-input.
	if ins.IsOptimal(classifier.Threshold1D{Tau: math.Inf(-1)}) {
		t.Error("all-positive should be non-optimal for P00")
	}
	ins11 := Instance{N: 8, Kind: Kind11, I: 1}
	if !ins11.IsOptimal(classifier.Threshold1D{Tau: math.Inf(-1)}) {
		t.Error("all-positive should be optimal for P11")
	}
}

func TestInstanceOracle(t *testing.T) {
	ins := Instance{N: 4, Kind: Kind00, I: 1}
	o := ins.Oracle()
	if o.Len() != 4 {
		t.Fatal("oracle size wrong")
	}
	labels := ins.Labels()
	for i := 0; i < 4; i++ {
		got, err := o.Probe(i)
		if err != nil || got != labels[i] {
			t.Fatalf("oracle label %d wrong", i)
		}
	}
}

func TestPoints(t *testing.T) {
	pts := Points(3)
	if len(pts) != 3 || pts[0][0] != 1 || pts[2][0] != 3 {
		t.Error("Points wrong")
	}
}
