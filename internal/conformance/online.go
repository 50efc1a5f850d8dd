package conformance

import (
	"fmt"
	"math"
	"math/rand"

	"monoclass/internal/geom"
	"monoclass/internal/online"
	"monoclass/internal/problem"
)

// Online-learning conformance: the incremental updater replayed over a
// seeded insert/delete trace derived from the instance, differentially
// compared against full retrains of the surviving multiset.
//
// Two checks:
//
//   - online-incremental-vs-retrain runs the updater in exact mode
//     (rebuild on every delta) and demands, at sampled steps and at the
//     end, that its maintained weighted error equals a from-scratch
//     passive solve on the live points, and that the maintained error
//     matches rescoring the published model over the live multiset.
//   - online-drift-bound runs the updater in lazy mode (rebuild every
//     K deltas with interim models between) and demands the paper-side
//     soundness contract: maintained werr ≤ k* + DriftBound at every
//     sampled step, with exact equality restored by a forced Resolve.
//
// Traces are pure functions of (instance, Instance.Seed): the points
// are inserted in order with their instance weights, interleaved with
// deletes of random live points, then roughly half the survivors are
// deleted. Instances with non-finite coordinates are skipped — the
// updater's intake validation rejects them by contract (NaN breaks the
// dominance order), which FuzzOnlineTrace covers separately.

// buildOnlineTrace derives the deterministic delta trace for an
// instance: ordered inserts interleaved with deletes of random live
// points, then a churn-down phase deleting about half the survivors.
func buildOnlineTrace(in Instance, rng *rand.Rand) []online.Delta {
	ws := in.WeightedSet()
	var trace []online.Delta
	var live []geom.WeightedPoint
	insertNext := 0
	for insertNext < len(ws) {
		if len(live) > 0 && rng.Intn(4) == 0 {
			k := rng.Intn(len(live))
			wp := live[k]
			live = append(live[:k], live[k+1:]...)
			trace = append(trace, online.Delta{Op: online.OpDelete, Point: wp.P.Clone(), Label: wp.Label})
		} else {
			wp := ws[insertNext]
			insertNext++
			live = append(live, wp)
			trace = append(trace, online.Delta{Op: online.OpInsert, Point: wp.P.Clone(), Label: wp.Label, Weight: wp.Weight})
		}
	}
	// Churn down: delete about half of what survived.
	for len(live) > len(ws)/2 {
		k := rng.Intn(len(live))
		wp := live[k]
		live = append(live[:k], live[k+1:]...)
		trace = append(trace, online.Delta{Op: online.OpDelete, Point: wp.P.Clone(), Label: wp.Label})
	}
	return trace
}

// hasNonFinite reports whether any coordinate is NaN or ±Inf; such
// instances are outside the updater's intake contract.
func hasNonFinite(in Instance) bool {
	for _, row := range in.Points {
		for _, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
	}
	return false
}

// retrainWErr solves the live multiset from scratch — problem.Prepare
// with default Options and the default flow solver — the retrain the
// updater's exact regime must equal. ok is false when the multiset is
// empty (nothing to compare against).
func retrainWErr(live []geom.WeightedPoint) (float64, bool, error) {
	if len(live) == 0 {
		return 0, false, nil
	}
	p, err := problem.Prepare(geom.WeightedSet(live), problem.Options{})
	if err != nil {
		return 0, false, fmt.Errorf("retrain: %w", err)
	}
	sol, err := p.Solve()
	if err != nil {
		return 0, false, fmt.Errorf("retrain: %w", err)
	}
	return sol.WErr, true, nil
}

// rescore recomputes the weighted error of the updater's published
// model over its live multiset — the invariant the updater claims to
// maintain incrementally.
func rescore(u *online.Updater) float64 {
	model := u.Model()
	var werr float64
	for _, wp := range u.Live() {
		if model.Classify(wp.P) != wp.Label {
			werr += wp.Weight
		}
	}
	return werr
}

// cmpStride picks how often to retrain from scratch along the trace:
// every step for small instances, sparser for big ones so the check
// stays sub-quadratic, always including the final step.
func cmpStride(n int) int {
	if n <= 64 {
		return 1
	}
	return n / 32
}

// CheckOnlineIncremental is the online-incremental-vs-retrain check:
// in exact mode (RebuildEvery 1) the incrementally maintained optimum
// must match a full retrain of the live multiset at every sampled step.
func CheckOnlineIncremental(in Instance) error {
	if in.N() == 0 || hasNonFinite(in) {
		return nil
	}
	rng := rand.New(rand.NewSource(in.Seed ^ 0x6f6e6c696e65)) // "online"
	trace := buildOnlineTrace(in, rng)
	u, err := online.NewUpdater(in.Dim(), nil, online.Config{RebuildEvery: 1})
	if err != nil {
		return fmt.Errorf("NewUpdater: %w", err)
	}
	stride := cmpStride(in.N())
	for i, d := range trace {
		if err := u.Apply(d); err != nil {
			return fmt.Errorf("step %d (%s): %w", i, d.Op, err)
		}
		if i%stride != 0 && i != len(trace)-1 {
			continue
		}
		kstar, ok, err := retrainWErr(u.Live())
		if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		if ok && !almostEq(u.WErr(), kstar) {
			return fmt.Errorf("step %d (%s): incremental werr %g, retrain optimum %g (live %d)",
				i, d.Op, u.WErr(), kstar, len(u.Live()))
		}
		if got := rescore(u); !almostEq(u.WErr(), got) {
			return fmt.Errorf("step %d: maintained werr %g, rescored model werr %g", i, u.WErr(), got)
		}
		if u.DriftBound() != 0 {
			return fmt.Errorf("step %d: drift bound %g in exact mode, want 0", i, u.DriftBound())
		}
	}
	return nil
}

// CheckOnlineDriftBound is the online-drift-bound check: in lazy mode
// the maintained error may trail the optimum, but never by more than
// the advertised drift bound, and a forced exact re-solve must land on
// the optimum precisely.
func CheckOnlineDriftBound(in Instance) error {
	if in.N() == 0 || hasNonFinite(in) {
		return nil
	}
	rng := rand.New(rand.NewSource(in.Seed ^ 0x6472696674)) // "drift"
	trace := buildOnlineTrace(in, rng)
	u, err := online.NewUpdater(in.Dim(), nil, online.Config{RebuildEvery: 7})
	if err != nil {
		return fmt.Errorf("NewUpdater: %w", err)
	}
	stride := cmpStride(in.N())
	for i, d := range trace {
		if err := u.Apply(d); err != nil {
			return fmt.Errorf("step %d (%s): %w", i, d.Op, err)
		}
		if got := rescore(u); !almostEq(u.WErr(), got) {
			return fmt.Errorf("step %d: maintained werr %g, rescored model werr %g", i, u.WErr(), got)
		}
		if i%stride != 0 && i != len(trace)-1 {
			continue
		}
		kstar, ok, err := retrainWErr(u.Live())
		if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		if !ok {
			continue
		}
		if u.WErr() < kstar-1e-9 {
			return fmt.Errorf("step %d: maintained werr %g below optimum %g — impossible fit", i, u.WErr(), kstar)
		}
		if u.WErr() > kstar+u.DriftBound()+1e-9 {
			return fmt.Errorf("step %d: maintained werr %g exceeds optimum %g + drift bound %g",
				i, u.WErr(), kstar, u.DriftBound())
		}
	}
	if err := u.Resolve(); err != nil {
		return fmt.Errorf("final resolve: %w", err)
	}
	kstar, ok, err := retrainWErr(u.Live())
	if err != nil {
		return err
	}
	if ok && !almostEq(u.WErr(), kstar) {
		return fmt.Errorf("after resolve: werr %g, retrain optimum %g", u.WErr(), kstar)
	}
	if u.DriftBound() != 0 {
		return fmt.Errorf("after resolve: drift bound %g, want 0", u.DriftBound())
	}
	return nil
}
