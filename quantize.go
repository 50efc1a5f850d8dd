package monoclass

import "monoclass/internal/quantize"

// Quantization preprocessing: Theorem 2's probing cost scales with
// the dominance width w, and continuous similarity scores make w
// large. Snapping scores to a small grid collapses w (cheaper
// labeling) at a usually-small cost in the best achievable error;
// QuantizeTradeoff measures the exchange so the level can be chosen
// deliberately. The quantizer is coordinate-wise monotone, so
// dominance — and with it classifier monotonicity — is preserved.

// QuantizeUniform snaps every coordinate to `levels` evenly spaced
// values across that coordinate's observed range.
func QuantizeUniform(pts []Point, levels int) []Point {
	return quantize.Uniform(pts, levels)
}

// QuantizeLevelStats summarizes one quantization level: the dominance
// width after snapping and the optimal error achievable on the
// quantized points.
type QuantizeLevelStats = quantize.LevelStats

// QuantizeTradeoff sweeps quantization levels over a labeled set,
// reporting width (labeling cost driver) against k* (accuracy floor)
// per level. Each level requires one exact passive solve.
func QuantizeTradeoff(lab []LabeledPoint, levels []int) ([]QuantizeLevelStats, error) {
	return quantize.Tradeoff(lab, levels, OptimalError)
}
