package online

import (
	"errors"
	"math"
	"testing"

	"monoclass/internal/geom"
)

// decodeTrace turns fuzz bytes into a bounded delta trace. Byte 0
// picks the dimension (1–3), byte 1 the rebuild cadence (1–8); then
// each delta is an opcode byte (bit 0: insert/delete, bit 1: label)
// followed by dim coordinate bytes and, for inserts, a weight byte.
// Coordinate 255 decodes to NaN and 254 to +Inf so the fuzzer reaches
// the intake validation paths; everything else lands on a small grid
// (0–7) dense in duplicates and dominance ties.
func decodeTrace(data []byte) (dim, rebuildEvery int, trace []Delta) {
	if len(data) < 2 {
		return 1, 1, nil
	}
	dim = 1 + int(data[0])%3
	rebuildEvery = 1 + int(data[1])%8
	const maxSteps = 256
	i := 2
	for i < len(data) && len(trace) < maxSteps {
		op := data[i]
		i++
		p := make(geom.Point, dim)
		for k := 0; k < dim; k++ {
			var c byte
			if i < len(data) {
				c = data[i]
				i++
			}
			switch c {
			case 255:
				p[k] = math.NaN()
			case 254:
				p[k] = math.Inf(1)
			default:
				p[k] = float64(c % 8)
			}
		}
		label := geom.Label((op >> 1) & 1)
		if op&1 == 0 {
			w := 1.0
			if i < len(data) {
				w = float64(1 + data[i]%4)
				i++
			}
			trace = append(trace, Delta{Op: OpInsert, Point: p, Label: label, Weight: w})
		} else {
			trace = append(trace, Delta{Op: OpDelete, Point: p, Label: label})
		}
	}
	return dim, rebuildEvery, trace
}

// FuzzOnlineTrace drives the updater with arbitrary decoded traces and
// checks it never panics, rejects only what the intake contract
// rejects, keeps its maintained werr equal to an independent model
// rescore, and — after a forced exact re-solve — matches a full
// retrain on the surviving multiset.
func FuzzOnlineTrace(f *testing.F) {
	// Duplicates and dominance ties on a 2-D grid.
	f.Add([]byte{1, 0, 0, 1, 1, 2, 0, 1, 1, 2, 2, 3, 3, 1, 0, 1, 1})
	// Delete of an absent point, then of a present one.
	f.Add([]byte{0, 3, 1, 5, 0, 5, 2, 1, 5})
	// NaN and +Inf coordinates through validation.
	f.Add([]byte{2, 1, 0, 255, 1, 1, 2, 0, 254, 254, 7, 1})
	// All deletes against an empty updater.
	f.Add([]byte{1, 2, 1, 1, 1, 3, 3, 2, 1, 7, 7, 2})
	// Insert-heavy churn crossing the interim-adoption path.
	f.Add([]byte{2, 7, 0, 1, 1, 1, 2, 2, 2, 2, 0, 3, 3, 3, 2, 0, 0, 1, 0, 4, 4, 4, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		dim, rebuildEvery, trace := decodeTrace(data)
		if len(trace) == 0 {
			return
		}
		u, err := NewUpdater(dim, nil, Config{RebuildEvery: rebuildEvery})
		if err != nil {
			t.Fatalf("NewUpdater: %v", err)
		}
		for i, d := range trace {
			err := u.Apply(d)
			if err != nil {
				// Only contract rejections are allowed: malformed inserts
				// (validation) and deletes with no live match.
				if d.Op == OpDelete && errors.Is(err, ErrNotFound) {
					continue
				}
				if d.Op == OpInsert && u.Validate(d) != nil {
					continue
				}
				t.Fatalf("step %d: unexpected error for %+v: %v", i, d, err)
			}
			if i%16 == 0 {
				checkRescore(t, u, i)
			}
		}
		checkRescore(t, u, len(trace))

		// Forced exact re-solve lands on the retrain optimum.
		if err := u.Resolve(); err != nil {
			t.Fatalf("resolve: %v", err)
		}
		mirror := geom.WeightedSet(u.Live())
		if len(mirror) == 0 {
			return
		}
		sol := retrain(t, mirror)
		if !almostEq(u.WErr(), sol.WErr) {
			t.Fatalf("after resolve: incremental werr %g, retrain optimum %g (live %d)",
				u.WErr(), sol.WErr, len(mirror))
		}
	})
}

// checkRescore asserts the maintained werr equals rescoring the
// published model over the live multiset — the updater's core
// invariant.
func checkRescore(t *testing.T, u *Updater, step int) {
	t.Helper()
	model := u.Model()
	var want float64
	for _, wp := range u.Live() {
		if model.Classify(wp.P) != wp.Label {
			want += wp.Weight
		}
	}
	if !almostEq(u.WErr(), want) {
		t.Fatalf("step %d: maintained werr %g, rescored %g", step, u.WErr(), want)
	}
}
