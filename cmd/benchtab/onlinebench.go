package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"monoclass/internal/geom"
	"monoclass/internal/online"
	"monoclass/internal/problem"
)

// onlineReport is the machine-readable output of -online: the
// amortized per-delta cost of keeping an optimal (or drift-bounded)
// monotone classifier current under an insert/delete stream, for each
// maintenance regime, against the retrain-from-scratch baseline. The
// speedup fields are what CI gates on: the lazy incremental regime
// (K=64) must beat per-delta full retrains by at least 5× on the
// acceptance workload (n=4096, d=3).
type onlineReport struct {
	benchEnv
	N          int                `json:"n"`
	Dim        int                `json:"dim"`
	Deltas     int                `json:"deltas"`
	Benchmarks []benchResult      `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
}

// onlineBase generates the steady-state multiset: uniform points with
// a noisy coordinate-sum threshold labeling and small integer weights.
// Continuous coordinates keep points distinct, so delete deltas match
// exactly the mirror entry they were derived from.
func onlineBase(rng *rand.Rand, n, d int) geom.WeightedSet {
	ws := make(geom.WeightedSet, n)
	for i := range ws {
		ws[i] = onlinePoint(rng, d)
	}
	return ws
}

// onlinePoint draws one labeled weighted point from the workload
// distribution.
func onlinePoint(rng *rand.Rand, d int) geom.WeightedPoint {
	p := make(geom.Point, d)
	sum := 0.0
	for k := range p {
		p[k] = rng.Float64() * 64
		sum += p[k]
	}
	label := geom.Negative
	if sum > float64(32*d) {
		label = geom.Positive
	}
	if rng.Float64() < 0.1 {
		label = 1 - label
	}
	return geom.WeightedPoint{P: p, Label: label, Weight: float64(1 + rng.Intn(4))}
}

// onlineTrace pregenerates a balanced insert/delete trace starting from
// base, simulating the live multiset so every delete names a point that
// is actually present when it arrives.
func onlineTrace(rng *rand.Rand, base geom.WeightedSet, d, steps int) []online.Delta {
	mirror := append(geom.WeightedSet(nil), base...)
	trace := make([]online.Delta, 0, steps)
	for len(trace) < steps {
		if len(mirror) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(mirror))
			wp := mirror[k]
			mirror = append(mirror[:k], mirror[k+1:]...)
			trace = append(trace, online.Delta{Op: online.OpDelete, Point: wp.P, Label: wp.Label})
		} else {
			wp := onlinePoint(rng, d)
			mirror = append(mirror, wp)
			trace = append(trace, online.Delta{Op: online.OpInsert, Point: wp.P, Label: wp.Label, Weight: wp.Weight})
		}
	}
	return trace
}

// applyTrace replays the trace into a mirror multiset, returning the
// final live set (delete semantics mirror the updater's: first live
// match on point and label).
func applyTrace(base geom.WeightedSet, trace []online.Delta) geom.WeightedSet {
	mirror := append(geom.WeightedSet(nil), base...)
	for _, d := range trace {
		if d.Op == online.OpInsert {
			mirror = append(mirror, geom.WeightedPoint{P: d.Point, Label: d.Label, Weight: d.Weight})
			continue
		}
		for k := range mirror {
			if mirror[k].P.Equal(d.Point) && mirror[k].Label == d.Label {
				mirror = append(mirror[:k], mirror[k+1:]...)
				break
			}
		}
	}
	return mirror
}

// runOnlineBench times the three maintenance regimes over the same
// delta trace and writes the JSON report to path.
func runOnlineBench(path string, seed int64, quick bool) error {
	n, d, steps, retrainSample := 4096, 3, 512, 16
	if quick {
		n, steps, retrainSample = 512, 96, 4
	}

	rng := rand.New(rand.NewSource(seed))
	base := onlineBase(rng, n, d)
	trace := onlineTrace(rng, base, d, steps)

	report := onlineReport{
		benchEnv: newBenchEnv(seed),
		N:        n,
		Dim:      d,
		Deltas:   steps,
		Speedups: make(map[string]float64),
	}
	add := func(name string, iters int, nsPerDelta float64) {
		report.Benchmarks = append(report.Benchmarks, benchResult{
			Name: name, Iterations: iters, NsPerOp: nsPerDelta,
		})
		fmt.Printf("%-44s %12d ns/delta  (%d deltas)\n", name, int64(nsPerDelta), iters)
	}
	tag := fmt.Sprintf("n%d_d%d", n, d)

	// Baseline: every delta answered by a full retrain from scratch
	// (dominance build + network + cold solve), sampled evenly along
	// the trace because each solve costs the same regardless of the
	// delta that triggered it.
	mirror := append(geom.WeightedSet(nil), base...)
	var retrainNs float64
	stride := len(trace) / retrainSample
	samples := 0
	for i := range trace {
		mirror = applyTrace(mirror, trace[i:i+1])
		if i%stride != 0 || samples >= retrainSample {
			continue
		}
		samples++
		start := time.Now()
		if _, err := problem.Solve(mirror); err != nil {
			return fmt.Errorf("online bench retrain at delta %d: %w", i, err)
		}
		retrainNs += float64(time.Since(start).Nanoseconds())
	}
	retrainPerDelta := retrainNs / float64(samples)
	add("Online/full-retrain-per-delta/"+tag, samples, retrainPerDelta)

	// Incremental regimes: one updater each, replaying the identical
	// trace; cost is wall clock over the whole stream divided by its
	// length (amortized per delta).
	final := applyTrace(base, trace)
	incremental := func(name string, k int) (float64, error) {
		u, err := online.NewUpdater(d, base, online.Config{RebuildEvery: k})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, dlt := range trace {
			if err := u.Apply(dlt); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		perDelta := float64(time.Since(start).Nanoseconds()) / float64(len(trace))
		// The regimes are only worth timing if they land on the same
		// optimum as the retrain baseline.
		if err := u.Resolve(); err != nil {
			return 0, err
		}
		sol, err := problem.Solve(final)
		if err != nil {
			return 0, err
		}
		if math.Abs(u.WErr()-sol.WErr) > 1e-9 {
			return 0, fmt.Errorf("%s diverged: incremental werr %g, retrain %g", name, u.WErr(), sol.WErr)
		}
		add(name, len(trace), perDelta)
		return perDelta, nil
	}

	k1, err := incremental("Online/incremental-exact-k1/"+tag, 1)
	if err != nil {
		return err
	}
	k64, err := incremental("Online/incremental-lazy-k64/"+tag, 64)
	if err != nil {
		return err
	}

	report.Speedups["incremental_k1_"+tag] = retrainPerDelta / k1
	report.Speedups["incremental_k64_"+tag] = retrainPerDelta / k64
	fmt.Printf("speedup %-36s exact k=1 %.2fx, lazy k=64 %.2fx\n", tag,
		report.Speedups["incremental_k1_"+tag], report.Speedups["incremental_k64_"+tag])

	return writeReport(path, report)
}
