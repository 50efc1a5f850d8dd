// Package online turns the static passive solver into an incremental
// learning pipeline (DESIGN.md §11): an Updater accepts labeled-point
// deltas (insert/delete) over a live multiset, re-solves it exactly
// every RebuildEvery deltas — a retrain through problem.Prepare and
// the default flow solve — and between exact solves maintains a cheap
// interim model whose weighted error is provably within DriftBound of
// optimal.
//
// The correctness contract, enforced differentially by the
// conformance checks and FuzzOnlineTrace: at every step the
// maintained weighted error equals geom.WErr of the current model
// over the live multiset, immediately after an exact solve the model
// is bit-equal to a full retrain (problem.Prepare with default
// Options over Live), and at all times werr ≤ k* + DriftBound, where
// k* is the optimum of the live multiset.
//
// The drift bound is the invariant that makes interim models sound
// (Tao, "Monotone Classification with Relative Approximations"):
// inserting a point of weight w raises k* by at most w and raises the
// maintained werr by at most w; deleting lowers both by at most w.
// Either way the gap werr − k* grows by at most the delta's weight,
// and interim adoptions only shrink werr while leaving k* fixed. So
// summing delta weights since the last exact solve bounds the
// suboptimality of whatever model is currently published.
package online

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/problem"
)

// Op is a delta kind.
type Op uint8

const (
	// OpInsert adds one weighted labeled point to the live multiset.
	OpInsert Op = iota
	// OpDelete removes one previously inserted point, matched by
	// coordinates and label (FIFO among duplicates); Weight is ignored.
	OpDelete
)

// String returns the wire name of the op ("insert"/"delete").
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Delta is one insert or delete of a weighted labeled point.
type Delta struct {
	Op     Op
	Point  geom.Point
	Label  geom.Label
	Weight float64 // insert only; ignored on delete
}

// ErrNotFound is returned by Apply for a delete whose (point, label)
// pair has no live occurrence.
var ErrNotFound = errors.New("online: delete target not in live set")

// Config tunes an Updater.
type Config struct {
	// RebuildEvery triggers an exact re-solve after this many applied
	// deltas (default 64). 1 means every delta is exact — the
	// differential-testing mode.
	RebuildEvery int
	// MaxDrift forces an exact re-solve whenever DriftBound would
	// exceed it, regardless of RebuildEvery (0 = no weight cap). It is
	// the knob that turns the drift invariant into a hard quality
	// budget: the published model's werr never exceeds k* + MaxDrift.
	MaxDrift float64
	// Publish, when non-nil, is called with every new model (exact or
	// interim) under the updater lock. The serving layer wires it to
	// Registry.Swap so the existing SpotAudit/HoldoutAudit gates vet
	// each promotion; a rejection is counted in Stats but the updater
	// keeps its internal model — the next exact solve re-offers.
	Publish func(*classifier.AnchorSet) error
}

// StatsSnapshot is a point-in-time copy of the updater counters,
// serialized into the /stats endpoint. ResolveNS is the summed wall
// time of the exact solves ExactSolves counts, Prepare plus Solve: only
// the Solve for NewUpdaterFromProblem's first, whose Problem arrives
// prepared, and nothing for an empty multiset's, which solves nothing.
// ResolveNS / ExactSolves is then the mean exact re-solve.
type StatsSnapshot struct {
	Inserts          uint64  `json:"inserts"`
	Deletes          uint64  `json:"deletes"`
	DeleteMisses     uint64  `json:"delete_misses"`
	ExactSolves      uint64  `json:"exact_solves"`
	ResolveNS        int64   `json:"resolve_ns"`
	InterimAdoptions uint64  `json:"interim_adoptions"`
	PublishRejects   uint64  `json:"publish_rejects"`
	ApplyErrors      uint64  `json:"apply_errors"`
	Live             int     `json:"live"`
	WErr             float64 `json:"werr"`
	DriftBound       float64 `json:"drift_bound"`
	SinceExact       int     `json:"since_exact"`
}

// Updater maintains an optimal (or drift-bounded near-optimal)
// monotone classifier over a mutating weighted multiset. All methods
// are safe for concurrent use; mutations serialize on one mutex while
// Model/WErr/Stats readers take it only briefly.
type Updater struct {
	mu  sync.Mutex
	cfg Config
	dim int

	// The live multiset as parallel slices in insertion order; a
	// delete removes its slot in place, so slot order is the input
	// order of the next exact solve.
	pts     []geom.Point
	labels  []geom.Label
	weights []float64
	// assign is the current model's value on each slot — maintained so
	// werr never needs an O(n·m) rescore. Invariant: for every slot i,
	// assign[i] == model.Classify(pts[i]), and werr is the total weight
	// of slots with assign[i] != labels[i].
	assign []geom.Label

	model *classifier.AnchorSet
	werr  float64
	drift float64 // Σ delta weights since last exact solve
	since int     // deltas since last exact solve

	stats struct {
		inserts, deletes, deleteMisses       uint64
		exactSolves, interims, publishRejcts uint64
		applyErrors                          uint64
		resolveNS                            int64
	}
}

// NewUpdater builds an updater over the initial multiset (which may
// be empty) and runs one exact solve without publishing — the caller
// seeds the registry with the returned Model itself.
func NewUpdater(dim int, initial geom.WeightedSet, cfg Config) (*Updater, error) {
	u, err := newUpdater(dim, initial, cfg)
	if err != nil {
		return nil, err
	}
	if err := u.resolveLocked(false); err != nil {
		return nil, err
	}
	return u, nil
}

// NewUpdaterFromProblem builds an updater whose live multiset is the
// prepared Problem's point set, in input order, and whose first model
// is that Problem's exact solve: an online pipeline seeded from a
// trained-and-audited Problem skips the first Prepare.
func NewUpdaterFromProblem(p *problem.Problem, cfg Config) (*Updater, error) {
	u, err := newUpdater(p.Dim(), p.WeightedSet(), cfg)
	if err != nil {
		return nil, err
	}
	if err := u.solveLocked(p, false, time.Now()); err != nil {
		return nil, err
	}
	return u, nil
}

// newUpdater validates cfg and the initial multiset and copies it
// into the live slices; the caller runs the first solve.
func newUpdater(dim int, initial geom.WeightedSet, cfg Config) (*Updater, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("online: dimension %d must be positive", dim)
	}
	if cfg.RebuildEvery < 0 {
		return nil, fmt.Errorf("online: RebuildEvery %d must be non-negative", cfg.RebuildEvery)
	}
	if cfg.RebuildEvery == 0 {
		cfg.RebuildEvery = 64
	}
	if cfg.MaxDrift < 0 || math.IsNaN(cfg.MaxDrift) {
		return nil, fmt.Errorf("online: MaxDrift %g must be non-negative", cfg.MaxDrift)
	}
	u := &Updater{
		cfg:     cfg,
		dim:     dim,
		pts:     make([]geom.Point, len(initial)),
		labels:  make([]geom.Label, len(initial)),
		weights: make([]float64, len(initial)),
		model:   classifier.ConstNegative(dim),
	}
	for i, wp := range initial {
		if err := validateInsert(dim, wp.P, wp.Label, wp.Weight); err != nil {
			return nil, fmt.Errorf("online: initial point %d: %w", i, err)
		}
		u.pts[i] = wp.P.Clone()
		u.labels[i] = wp.Label
		u.weights[i] = wp.Weight
	}
	return u, nil
}

// validateInsert holds the stateless part of delta validation, shared
// by NewUpdater, Apply, and the pipeline's synchronous intake check:
// the dimension, then geom.WeightedPoint.Validate, which rejects NaN
// coordinates (they break the partial order every solver relies on),
// non-binary labels, and weights that are not positive and finite.
func validateInsert(dim int, p geom.Point, l geom.Label, w float64) error {
	if len(p) != dim {
		return fmt.Errorf("point has dimension %d, want %d", len(p), dim)
	}
	return geom.WeightedPoint{P: p, Label: l, Weight: w}.Validate()
}

// Validate checks a delta without applying it: everything Apply would
// reject except delete-target existence, which depends on state the
// queue hasn't drained yet. The pipeline runs this at intake so
// malformed requests fail synchronously with a 400 instead of dying
// silently inside the worker.
func (u *Updater) Validate(d Delta) error {
	switch d.Op {
	case OpInsert:
		return u.validateInsertErr(d)
	case OpDelete:
		if len(d.Point) != u.dim {
			return fmt.Errorf("online: point has dimension %d, want %d", len(d.Point), u.dim)
		}
		if !d.Label.Valid() {
			return fmt.Errorf("online: label %d is not binary", d.Label)
		}
		return nil
	default:
		return fmt.Errorf("online: unknown op %d", d.Op)
	}
}

func (u *Updater) validateInsertErr(d Delta) error {
	if err := validateInsert(u.dim, d.Point, d.Label, d.Weight); err != nil {
		return fmt.Errorf("online: %w", err)
	}
	return nil
}

// Apply applies one delta and runs the rebuild policy: an exact
// re-solve when the delta count reaches RebuildEvery or the drift
// bound exceeds MaxDrift, a cheap interim model graft otherwise. On
// error the live multiset is unchanged.
func (u *Updater) Apply(d Delta) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.applyLocked(d)
}

// ApplyBatch applies deltas in order under one lock hold, stopping at
// the first error. It returns how many were applied.
func (u *Updater) ApplyBatch(ds []Delta) (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for i, d := range ds {
		if err := u.applyLocked(d); err != nil {
			return i, err
		}
	}
	return len(ds), nil
}

func (u *Updater) applyLocked(d Delta) error {
	if err := u.Validate(d); err != nil {
		u.stats.applyErrors++
		return err
	}
	var w float64
	switch d.Op {
	case OpInsert:
		u.pts = append(u.pts, d.Point.Clone())
		u.labels = append(u.labels, d.Label)
		u.weights = append(u.weights, d.Weight)
		pred := u.model.Classify(d.Point)
		u.assign = append(u.assign, pred)
		if pred != d.Label {
			u.werr += d.Weight
		}
		w = d.Weight
		u.stats.inserts++
	case OpDelete:
		slot := u.findLocked(d.Point, d.Label)
		if slot < 0 {
			u.stats.deleteMisses++
			return ErrNotFound
		}
		if u.assign[slot] != u.labels[slot] {
			u.werr -= u.weights[slot]
		}
		w = u.weights[slot]
		u.pts = append(u.pts[:slot], u.pts[slot+1:]...)
		u.labels = append(u.labels[:slot], u.labels[slot+1:]...)
		u.weights = append(u.weights[:slot], u.weights[slot+1:]...)
		u.assign = append(u.assign[:slot], u.assign[slot+1:]...)
		u.stats.deletes++
	}
	u.drift += w
	u.since++

	if u.since >= u.cfg.RebuildEvery || (u.cfg.MaxDrift > 0 && u.drift > u.cfg.MaxDrift) {
		return u.resolveLocked(true)
	}
	if d.Op == OpInsert {
		u.tryInterimLocked()
	}
	return nil
}

// findLocked returns the lowest slot whose point and label match
// (FIFO among duplicates), or -1. NaN coordinates never match because
// inserts reject them and Equal is IEEE-strict.
func (u *Updater) findLocked(p geom.Point, l geom.Label) int {
	for i := range u.pts {
		if u.labels[i] == l && u.pts[i].Equal(p) {
			return i
		}
	}
	return -1
}

// tryInterimLocked grafts the just-inserted point onto the anchor set
// when that strictly lowers werr. The candidate model differs from
// the current one exactly on the live points dominating the new point
// that were classified Negative (anchors only ever grow the positive
// region), so the error delta is computable from one O(n·d) dominance
// scan — no flow solve, no rescore. Deletes and already-correct
// inserts leave the model alone; mis-classified Negative inserts have
// no anchor-graft analogue (shrinking the positive region is not
// expressible by adding anchors) and simply wait for the next rebuild.
func (u *Updater) tryInterimLocked() {
	slot := len(u.pts) - 1 // the point applyLocked just inserted
	if u.labels[slot] != geom.Positive || u.assign[slot] == geom.Positive {
		return
	}
	p := u.pts[slot]
	var errDelta float64
	for i, q := range u.pts {
		if u.assign[i] != geom.Negative || !geom.Dominates(q, p) {
			continue
		}
		if u.labels[i] == geom.Negative {
			errDelta += u.weights[i]
		} else {
			errDelta -= u.weights[i]
		}
	}
	if errDelta >= 0 {
		return
	}
	anchors := u.model.Anchors()
	cand := make([]geom.Point, len(anchors), len(anchors)+1)
	copy(cand, anchors)
	cand = append(cand, p)
	next, err := classifier.NewAnchorSet(u.dim, cand)
	if err != nil {
		// Cannot happen for finite non-NaN anchors; treat as a skipped
		// optimization rather than a failed delta.
		u.stats.applyErrors++
		return
	}
	for i, q := range u.pts {
		if u.assign[i] == geom.Negative && geom.Dominates(q, p) {
			u.assign[i] = geom.Positive
		}
	}
	u.werr += errDelta
	u.model = next
	u.stats.interims++
	u.publishLocked()
}

// Resolve forces an exact re-solve (and publication) regardless of
// the rebuild policy.
func (u *Updater) Resolve() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.resolveLocked(true)
}

// resolveLocked retrains on the live multiset: problem.Prepare with
// default Options — the train path's constructor and route choice —
// then solveLocked. A retrain over Live therefore builds
// a bit-identical network and must return the identical assignment.
func (u *Updater) resolveLocked(publish bool) error {
	if len(u.pts) == 0 {
		// Empty multiset: every model has werr 0; keep serving the
		// current one rather than yanking it to a constant.
		u.werr, u.drift, u.since = 0, 0, 0
		u.stats.exactSolves++
		return nil
	}
	start := time.Now()
	live := make(geom.WeightedSet, len(u.pts))
	for i, p := range u.pts {
		live[i] = geom.WeightedPoint{P: p, Label: u.labels[i], Weight: u.weights[i]}
	}
	prob, err := problem.Prepare(live, problem.Options{})
	if err != nil {
		u.stats.applyErrors++
		return fmt.Errorf("online: exact re-solve: %w", err)
	}
	return u.solveLocked(prob, publish, start)
}

// solveLocked solves prob, a Problem over the live multiset in slot
// order, with the default flow solver a retrain uses, and installs the
// exact model; the solve's time since start counts into ResolveNS.
func (u *Updater) solveLocked(prob *problem.Problem, publish bool, start time.Time) error {
	sol, err := prob.Solve()
	if err != nil {
		u.stats.applyErrors++
		return fmt.Errorf("online: exact re-solve: %w", err)
	}
	u.model = sol.Classifier
	u.assign = sol.Assignment
	u.werr = sol.WErr
	u.drift, u.since = 0, 0
	u.stats.exactSolves++
	u.stats.resolveNS += time.Since(start).Nanoseconds()
	if publish {
		u.publishLocked()
	}
	return nil
}

func (u *Updater) publishLocked() {
	if u.cfg.Publish == nil {
		return
	}
	if err := u.cfg.Publish(u.model); err != nil {
		u.stats.publishRejcts++
	}
}

// Dim returns the dimensionality of the point space.
func (u *Updater) Dim() int { return u.dim }

// Model returns the current model (exact or interim). The returned
// AnchorSet is immutable.
func (u *Updater) Model() *classifier.AnchorSet {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.model
}

// WErr returns the maintained weighted error of Model over Live.
func (u *Updater) WErr() float64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.werr
}

// DriftBound returns the proven bound on WErr − k*: the total weight
// of deltas applied since the last exact solve. Zero right after a
// rebuild.
func (u *Updater) DriftBound() float64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.drift
}

// Live returns a copy of the live multiset in slot (insertion) order —
// the exact point list the next exact solve will train on.
func (u *Updater) Live() geom.WeightedSet {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make(geom.WeightedSet, len(u.pts))
	for i, p := range u.pts {
		out[i] = geom.WeightedPoint{P: p.Clone(), Label: u.labels[i], Weight: u.weights[i]}
	}
	return out
}

// Stats returns a snapshot of the updater counters.
func (u *Updater) Stats() StatsSnapshot {
	u.mu.Lock()
	defer u.mu.Unlock()
	return StatsSnapshot{
		Inserts:          u.stats.inserts,
		Deletes:          u.stats.deletes,
		DeleteMisses:     u.stats.deleteMisses,
		ExactSolves:      u.stats.exactSolves,
		ResolveNS:        u.stats.resolveNS,
		InterimAdoptions: u.stats.interims,
		PublishRejects:   u.stats.publishRejcts,
		ApplyErrors:      u.stats.applyErrors,
		Live:             len(u.pts),
		WErr:             u.werr,
		DriftBound:       u.drift,
		SinceExact:       u.since,
	}
}
