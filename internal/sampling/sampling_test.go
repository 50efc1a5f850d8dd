package sampling

import (
	"math"
	"math/rand"
	"testing"
)

func TestLemma5SampleSizeFormula(t *testing.T) {
	// phi = 1/2, delta = 1/2, mu = 1: t = ceil(max(4, 2) * 3 ln 4) = ceil(12 ln 4).
	want := int(math.Ceil(12 * math.Log(4)))
	if got := Lemma5SampleSize(0.5, 0.5, 1); got != want {
		t.Errorf("got %d, want %d", got, want)
	}
	// Tighter muUpper shrinks the bound until the 1/phi term dominates.
	small := Lemma5SampleSize(0.5, 0.5, 0.1) // max(0.4, 2) = 2 -> ceil(6 ln 4)
	if want := int(math.Ceil(6 * math.Log(4))); small != want {
		t.Errorf("muUpper bound: got %d, want %d", small, want)
	}
	if Lemma5SampleSize(1, 1, 1) < 1 {
		t.Error("sample size must be at least 1")
	}
	// Out-of-range muUpper falls back to the worst case.
	if Lemma5SampleSize(0.5, 0.5, 2) != Lemma5SampleSize(0.5, 0.5, 1) {
		t.Error("muUpper > 1 should clamp to 1")
	}
}

func TestSampleSizeConstantScaling(t *testing.T) {
	a := SampleSize(0.1, 0.1, 1, 3)
	b := SampleSize(0.1, 0.1, 1, 1)
	if a != Lemma5SampleSize(0.1, 0.1, 1) {
		t.Error("SampleSize with c=3 must match Lemma5SampleSize")
	}
	if b >= a {
		t.Error("smaller constant must shrink the sample size")
	}
}

func TestSampleSizePanics(t *testing.T) {
	cases := []func(){
		func() { Lemma5SampleSize(0, 0.5, 1) },
		func() { Lemma5SampleSize(0.5, 0, 1) },
		func() { Lemma5SampleSize(1.5, 0.5, 1) },
		func() { SampleSize(0.5, 0.5, 1, 0) },
		func() { WithReplacement(rand.New(rand.NewSource(1)), 0, 1) },
		func() { WithReplacement(rand.New(rand.NewSource(1)), 5, -1) },
		func() { EstimateCount(1, 0, 10) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestWithReplacementRangeAndDeterminism(t *testing.T) {
	r1 := rand.New(rand.NewSource(99))
	r2 := rand.New(rand.NewSource(99))
	a := WithReplacement(r1, 10, 1000)
	b := WithReplacement(r2, 10, 1000)
	for i := range a {
		if a[i] < 0 || a[i] >= 10 {
			t.Fatalf("index %d out of range", a[i])
		}
		if a[i] != b[i] {
			t.Fatal("same seed must give same sample")
		}
	}
	if len(WithReplacement(r1, 5, 0)) != 0 {
		t.Error("t=0 should give empty sample")
	}
}

func TestWithReplacementIsUniformish(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, trials := 8, 80000
	counts := make([]int, n)
	for _, i := range WithReplacement(rng, n, trials) {
		counts[i]++
	}
	want := float64(trials) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %g", i, c, want)
		}
	}
}

// Empirical check of Lemma 5 itself: with t = Lemma5SampleSize(phi,
// delta), the empirical mean should be within phi of mu in well over a
// 1-delta fraction of repetitions.
func TestLemma5EmpiricalCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const (
		mu    = 0.3
		phi   = 0.05
		delta = 0.1
		reps  = 300
	)
	size := Lemma5SampleSize(phi, delta, 1)
	bad := 0
	for r := 0; r < reps; r++ {
		hits := 0
		for i := 0; i < size; i++ {
			if rng.Float64() < mu {
				hits++
			}
		}
		if math.Abs(float64(hits)/float64(size)-mu) >= phi {
			bad++
		}
	}
	if frac := float64(bad) / reps; frac > delta {
		t.Errorf("deviation fraction %g exceeds delta %g", frac, delta)
	}
}

func TestEstimateCount(t *testing.T) {
	if got := EstimateCount(25, 100, 1000); got != 250 {
		t.Errorf("EstimateCount = %g, want 250", got)
	}
}

func TestSampleSizeEdgeCases(t *testing.T) {
	// Overflow clamp: microscopic phi with huge log factor.
	if got := SampleSize(1e-9, 1e-9, 1, 3); got != math.MaxInt32 {
		t.Errorf("overflowing sample size should clamp to MaxInt32, got %d", got)
	}
	if got := Lemma5SampleSize(1e-9, 1e-9, 1); got != math.MaxInt32 {
		t.Errorf("overflowing Lemma5 size should clamp, got %d", got)
	}
	// muUpper out of range clamps to worst case in SampleSize too.
	if SampleSize(0.5, 0.5, -1, 3) != SampleSize(0.5, 0.5, 1, 3) {
		t.Error("bad muUpper should clamp to 1")
	}
	// Valid muUpper tightens the bound when the mu/phi² branch wins.
	if SampleSize(0.5, 0.5, 0.1, 3) >= SampleSize(0.5, 0.5, 1, 3) {
		t.Error("muUpper should tighten the bound")
	}
	// phi/delta validation in SampleSize mirrors Lemma5SampleSize.
	for i, f := range []func(){
		func() { SampleSize(0, 0.5, 1, 3) },
		func() { SampleSize(0.5, 0, 1, 3) },
		func() { SampleSize(1.5, 0.5, 1, 3) },
		func() { SampleSize(0.5, 1.5, 1, 3) },
		func() { Lemma5SampleSize(0.5, 1.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
