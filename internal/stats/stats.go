// Package stats supplies the small statistical toolkit used by the
// experiment harness: summary statistics, quantiles, and log-log
// slope fitting for verifying asymptotic growth rates.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN when
// len(xs) < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns NaN for an empty
// slice and panics for q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %g outside [0,1]", q))
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Summary bundles the descriptive statistics the harness reports for a
// series of trial measurements.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		P25:    Quantile(xs, 0.25),
		Median: Median(xs),
		P75:    Quantile(xs, 0.75),
		P95:    Quantile(xs, 0.95),
		Max:    Max(xs),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.3g min=%.4g med=%.4g p95=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.P95, s.Max)
}

// LogLogSlope fits err = a * x^b by least squares on (log x, log y) and
// returns the exponent b. Pairs with non-positive coordinates are
// skipped. It returns NaN when fewer than two usable pairs remain. The
// harness uses it to check growth rates (e.g. probing cost vs 1/ε
// should fit slope ≈ 2).
func LogLogSlope(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: mismatched series lengths")
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return math.NaN()
	}
	mx, my := Mean(lx), Mean(ly)
	var num, den float64
	for i := range lx {
		num += (lx[i] - mx) * (ly[i] - my)
		den += (lx[i] - mx) * (lx[i] - mx)
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
