// Package online turns the static passive solver into an incremental
// learning pipeline (ROADMAP item 2, DESIGN.md §11): an Updater
// accepts labeled-point deltas (insert/delete), patches the dominance
// structure in place through domgraph.Dynamic instead of rebuilding
// the O(dn²) relation, warm-starts exact re-solves from a persistent
// maxflow.Workspace, and between exact solves maintains a cheap
// interim model whose weighted error is provably within DriftBound of
// optimal.
//
// The correctness contract, enforced differentially by the
// conformance checks and FuzzOnlineTrace: at every step the
// maintained weighted error equals geom.WErr of the current model
// over the live multiset, immediately after an exact solve the model
// is bit-equal to a full retrain with the same dominance matrix, and
// at all times werr ≤ k* + DriftBound, where k* is the optimum of the
// live multiset.
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

	"monoclass/internal/classifier"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
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
	// RebuildEvery triggers an exact warm-started re-solve after this
	// many applied deltas (default 64). 1 means every delta is exact —
	// the differential-testing mode.
	RebuildEvery int
	// MaxDrift forces an exact re-solve whenever DriftBound would
	// exceed it, regardless of RebuildEvery (0 = no weight cap). It is
	// the knob that turns the drift invariant into a hard quality
	// budget: the published model's werr never exceeds k* + MaxDrift.
	MaxDrift float64
	// DisableInterim turns off the cheap anchor-graft models between
	// exact solves; the previous exact model is served unchanged until
	// the next rebuild.
	DisableInterim bool
	// Publish, when non-nil, is called with every new model (exact or
	// interim) under the updater lock. The serving layer wires it to
	// Registry.Swap so the existing SpotAudit/HoldoutAudit gates vet
	// each promotion; a rejection is counted in Stats but the updater
	// keeps its internal model — the next exact solve re-offers.
	Publish func(*classifier.AnchorSet) error
}

// StatsSnapshot is a point-in-time copy of the updater counters,
// serialized into the /stats endpoint.
type StatsSnapshot struct {
	Inserts          uint64  `json:"inserts"`
	Deletes          uint64  `json:"deletes"`
	DeleteMisses     uint64  `json:"delete_misses"`
	ExactSolves      uint64  `json:"exact_solves"`
	InterimAdoptions uint64  `json:"interim_adoptions"`
	PublishRejects   uint64  `json:"publish_rejects"`
	Compactions      uint64  `json:"compactions"`
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

	dyn *domgraph.Dynamic
	// Parallel per-slot arrays (tombstoned slots keep stale entries
	// until the next Compact, exactly like dyn's own rows).
	labels  []geom.Label
	weights []float64
	// assign is the current model's value on each slot — maintained so
	// werr never needs an O(n·m) rescore. Invariant: for every live
	// slot i, assign[i] == model.Classify(point i), and werr is the
	// total weight of live slots with assign[i] != labels[i].
	assign []geom.Label

	ws    *maxflow.Workspace // persistent warm-start scratch for exact solves
	prob  *problem.Problem   // prepared at the last exact solve; see Problem
	model *classifier.AnchorSet
	werr  float64
	drift float64 // Σ delta weights since last exact solve
	since int     // deltas since last exact solve

	stats struct {
		inserts, deletes, deleteMisses       uint64
		exactSolves, interims, publishRejcts uint64
		compactions, applyErrors             uint64
	}
}

// NewUpdater builds an updater over the initial multiset (which may
// be empty) and runs one exact solve without publishing — the caller
// seeds the registry with the returned Model itself.
func NewUpdater(dim int, initial geom.WeightedSet, cfg Config) (*Updater, error) {
	return newUpdater(dim, initial, nil, cfg)
}

// NewUpdaterFromProblem builds an updater seeded from a prepared
// Problem over the initial multiset: when the Problem holds a dense
// matrix its bits are adopted directly, so warm-starting an online
// pipeline from a trained-and-audited Problem skips the O(dn²)
// relation rebuild entirely.
func NewUpdaterFromProblem(p *problem.Problem, cfg Config) (*Updater, error) {
	return newUpdater(p.Dim(), p.WeightedSet(), p, cfg)
}

func newUpdater(dim int, initial geom.WeightedSet, seed *problem.Problem, cfg Config) (*Updater, error) {
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
	u := &Updater{cfg: cfg, dim: dim, ws: maxflow.NewWorkspace()}
	pts := make([]geom.Point, len(initial))
	for i, wp := range initial {
		if err := validateInsert(dim, wp.P, wp.Label, wp.Weight); err != nil {
			return nil, fmt.Errorf("online: initial point %d: %w", i, err)
		}
		pts[i] = wp.P
	}
	var dyn *domgraph.Dynamic
	var err error
	if seed != nil && seed.Matrix() != nil && seed.N() == len(initial) {
		// A dense prepared Problem over the same points already paid
		// for the relation — adopt its bits instead of rebuilding.
		dyn, err = domgraph.NewDynamicFromMatrix(dim, pts, seed.Matrix())
	} else {
		dyn, err = domgraph.NewDynamic(dim, pts)
	}
	if err != nil {
		return nil, err
	}
	u.dyn = dyn
	u.labels = make([]geom.Label, len(initial))
	u.weights = make([]float64, len(initial))
	u.assign = make([]geom.Label, len(initial))
	for i, wp := range initial {
		u.labels[i] = wp.Label
		u.weights[i] = wp.Weight
	}
	u.model = classifier.ConstNegative(dim)
	if err := u.resolveLocked(false); err != nil {
		return nil, err
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
// warm-started re-solve when the delta count reaches RebuildEvery or
// the drift bound exceeds MaxDrift, a constant-work interim model
// graft otherwise. On error the live multiset is unchanged.
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
		if _, err := u.dyn.Insert(d.Point); err != nil {
			u.stats.applyErrors++
			return fmt.Errorf("online: %w", err)
		}
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
		u.dyn.Delete(slot)
		u.stats.deletes++
	}
	u.drift += w
	u.since++

	if u.since >= u.cfg.RebuildEvery || (u.cfg.MaxDrift > 0 && u.drift > u.cfg.MaxDrift) {
		return u.resolveLocked(true)
	}
	if !u.cfg.DisableInterim && d.Op == OpInsert {
		u.tryInterimLocked()
	}
	return nil
}

// findLocked returns the lowest live slot whose point and label match
// (FIFO among duplicates), or -1. NaN coordinates never match because
// inserts reject them and Equal is IEEE-strict.
func (u *Updater) findLocked(p geom.Point, l geom.Label) int {
	for i := 0; i < u.dyn.Slots(); i++ {
		if u.dyn.Alive(i) && u.labels[i] == l && u.dyn.Point(i).Equal(p) {
			return i
		}
	}
	return -1
}

// tryInterimLocked grafts the just-inserted point onto the anchor set
// when that strictly lowers werr. The candidate model differs from
// the current one exactly on the live points dominating the new point
// that were classified Negative (anchors only ever grow the positive
// region), so the error delta is computable from one bit-matrix
// column walk — no flow solve, no rescore. Deletes and already-correct
// inserts leave the model alone; mis-classified Negative inserts have
// no anchor-graft analogue (shrinking the positive region is not
// expressible by adding anchors) and simply wait for the next rebuild.
func (u *Updater) tryInterimLocked() {
	slot := u.dyn.Slots() - 1 // the point applyLocked just inserted
	if u.labels[slot] != geom.Positive || u.assign[slot] == geom.Positive {
		return
	}
	var errDelta float64
	for i := 0; i < u.dyn.Slots(); i++ {
		if !u.dyn.Alive(i) || u.assign[i] != geom.Negative || !u.dyn.Dominates(i, slot) {
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
	cand = append(cand, u.dyn.Point(slot))
	next, err := classifier.NewAnchorSet(u.dim, cand)
	if err != nil {
		// Cannot happen for finite non-NaN anchors; treat as a skipped
		// optimization rather than a failed delta.
		u.stats.applyErrors++
		return
	}
	for i := 0; i < u.dyn.Slots(); i++ {
		if u.dyn.Alive(i) && u.assign[i] == geom.Negative && u.dyn.Dominates(i, slot) {
			u.assign[i] = geom.Positive
		}
	}
	u.werr += errDelta
	u.model = next
	u.stats.interims++
	u.publishLocked()
}

// Resolve forces an exact warm-started re-solve (and publication)
// regardless of the rebuild policy.
func (u *Updater) Resolve() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.resolveLocked(true)
}

// resolveLocked compacts the dynamic matrix, adopts the live multiset
// and its patched matrix into a problem.Problem, and re-solves that
// with the persistent workspace before installing the exact model.
// The adopted matrix view carries the same bits a fresh domgraph.Build
// over the live points would produce, so a retrain with
// Options{Matrix: Build(live)} constructs a bit-identical network and
// must return the identical assignment.
func (u *Updater) resolveLocked(publish bool) error {
	if u.dyn.Dead() > 0 {
		u.stats.compactions++
	}
	remap := u.dyn.Compact()
	labels := make([]geom.Label, len(remap))
	weights := make([]float64, len(remap))
	for ni, oi := range remap {
		labels[ni] = u.labels[oi]
		weights[ni] = u.weights[oi]
	}
	u.labels, u.weights = labels, weights

	n := u.dyn.Live()
	if n == 0 {
		// Empty multiset: every model has werr 0; keep serving the
		// current one rather than yanking it to a constant.
		u.assign = u.assign[:0]
		u.prob = nil
		u.werr, u.drift, u.since = 0, 0, 0
		u.stats.exactSolves++
		return nil
	}
	lws := make(geom.WeightedSet, n)
	for i := 0; i < n; i++ {
		lws[i] = geom.WeightedPoint{P: u.dyn.Point(i), Label: u.labels[i], Weight: u.weights[i]}
	}
	prob, err := problem.Adopt(lws, u.dyn.MatrixView())
	if err != nil {
		u.stats.applyErrors++
		return fmt.Errorf("online: exact re-solve: %w", err)
	}
	sol, err := prob.SolveWith(problem.SolveOptions{
		Solver: func(g *maxflow.Network) maxflow.Result { return maxflow.SolveWith(u.ws, g) },
	})
	if err != nil {
		u.stats.applyErrors++
		return fmt.Errorf("online: exact re-solve: %w", err)
	}
	u.prob = prob
	u.model = sol.Classifier
	u.assign = sol.Assignment
	u.werr = sol.WErr
	u.drift, u.since = 0, 0
	u.stats.exactSolves++
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

// Problem returns the prepared Problem adopted at the last exact
// solve, or nil before the first non-empty solve. It shares storage
// with the updater's live matrix, so it is a snapshot valid only until
// the next applied delta — use it immediately (serving gates do) and
// do not retain it across mutations.
func (u *Updater) Problem() *problem.Problem {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.prob
}

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
	out := make(geom.WeightedSet, 0, u.dyn.Live())
	for i := 0; i < u.dyn.Slots(); i++ {
		if u.dyn.Alive(i) {
			out = append(out, geom.WeightedPoint{P: u.dyn.Point(i).Clone(), Label: u.labels[i], Weight: u.weights[i]})
		}
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
		InterimAdoptions: u.stats.interims,
		PublishRejects:   u.stats.publishRejcts,
		Compactions:      u.stats.compactions,
		ApplyErrors:      u.stats.applyErrors,
		Live:             u.dyn.Live(),
		WErr:             u.werr,
		DriftBound:       u.drift,
		SinceExact:       u.since,
	}
}
