package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := Variance(xs); !almost(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, 32.0/7)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %g", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance([]float64{1})) {
		t.Error("degenerate inputs should yield NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Error("Min/Max wrong")
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty Min/Max should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Error("single-element quantile wrong")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

// Quantile must be monotone in q and bounded by [Min, Max].
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		q1, q2 := rng.Float64(), rng.Float64()
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := Quantile(xs, q1), Quantile(xs, q2)
		return v1 <= v2+1e-12 && v1 >= Min(xs)-1e-12 && v2 <= Max(xs)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary wrong: %+v", s)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = 3 x^2 exactly -> slope 2.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	if got := LogLogSlope(xs, ys); !almost(got, 2, 1e-9) {
		t.Errorf("slope = %g, want 2", got)
	}
	// Non-positive points are skipped.
	if got := LogLogSlope([]float64{-1, 1, 2}, []float64{1, 1, 2}); !almost(got, 1, 1e-9) {
		t.Errorf("slope with skipped point = %g, want 1", got)
	}
	if !math.IsNaN(LogLogSlope([]float64{1}, []float64{1})) {
		t.Error("underdetermined fit should be NaN")
	}
	if !math.IsNaN(LogLogSlope([]float64{2, 2}, []float64{1, 3})) {
		t.Error("vertical fit should be NaN")
	}
}

func TestLogLogSlopePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LogLogSlope([]float64{1, 2}, []float64{1})
}
