// Package serve is the online serving layer: a hot-swappable model
// registry plus an HTTP classification service over trained AnchorSet
// models.
//
// The registry holds immutable model snapshots behind an
// atomic.Pointer, so the classify hot path is a single atomic load —
// model promotion never blocks an in-flight request, and a request
// observes exactly one coherent (model, version) pair. Swaps are
// serialized through a mutex that only writers touch and can be gated
// by an audit hook (monotonicity spot-check, holdout error budget)
// before a candidate model is promoted.
//
// The batcher dispatches single-point requests on arrival, one request
// per worker turn against one snapshot. Its bounded queue (the same
// intake queue /learn uses) applies backpressure by rejecting work
// when full. See DESIGN.md §9 for the architecture rationale.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
)

// Snapshot is one immutable registry entry: a trained model and the
// version the registry assigned at promotion. Snapshots are never
// mutated after publication — hot-swap replaces the pointer, so any
// goroutine still holding an old snapshot keeps serving it coherently.
type Snapshot struct {
	// Version is the registry-assigned promotion counter, starting at 1
	// for the initial model and increasing by exactly 1 per successful
	// swap.
	Version int64
	// Model is the immutable classifier. Callers must not mutate it.
	Model *classifier.AnchorSet
	// PromotedAt records when the snapshot became current.
	PromotedAt time.Time
}

// AuditFunc inspects a candidate model before promotion; a non-nil
// error vetoes the swap. old is the currently-serving model (never
// nil), next the candidate.
type AuditFunc func(old, next *classifier.AnchorSet) error

// Registry publishes the current model snapshot to a fleet of
// concurrent readers. Reads are wait-free (one atomic pointer load);
// writes go through Swap, which serializes on an internal mutex,
// runs the audit gate, and then publishes atomically.
type Registry struct {
	cur   atomic.Pointer[Snapshot]
	dim   int
	audit AuditFunc

	mu           sync.Mutex // serializes Swap: audit + version assignment + publish
	swaps        atomic.Int64
	auditRejects atomic.Int64

	// now is stubbed in tests; production uses time.Now.
	now func() time.Time
}

// NewRegistry creates a registry serving initial as version 1. The
// audit gate may be nil (every dimension-compatible swap is accepted).
func NewRegistry(initial *classifier.AnchorSet, audit AuditFunc) (*Registry, error) {
	if initial == nil {
		return nil, fmt.Errorf("serve: initial model must not be nil")
	}
	r := &Registry{dim: initial.Dim(), audit: audit, now: time.Now}
	r.cur.Store(&Snapshot{Version: 1, Model: initial, PromotedAt: r.now()})
	return r, nil
}

// Snapshot returns the current model snapshot. The result is immutable
// and never nil; it stays valid (and coherent) even if a swap lands
// immediately after the load.
func (r *Registry) Snapshot() *Snapshot { return r.cur.Load() }

// Version returns the currently-served model version.
func (r *Registry) Version() int64 { return r.cur.Load().Version }

// Dim returns the dimensionality the registry serves; every swapped
// model must match it.
func (r *Registry) Dim() int { return r.dim }

// Swaps returns how many successful promotions have happened (the
// initial model does not count).
func (r *Registry) Swaps() int64 { return r.swaps.Load() }

// AuditRejects returns how many candidate models the audit gate has
// vetoed.
func (r *Registry) AuditRejects() int64 { return r.auditRejects.Load() }

// Swap audits next and, on success, promotes it as the new current
// model, returning the assigned version. In-flight readers are never
// blocked: they keep their old snapshot until their next Snapshot
// call. Dimension mismatches are rejected before the audit gate runs.
func (r *Registry) Swap(next *classifier.AnchorSet) (int64, error) {
	if next == nil {
		return 0, fmt.Errorf("serve: candidate model must not be nil")
	}
	if next.Dim() != r.dim {
		return 0, fmt.Errorf("serve: candidate model dimension %d does not match registry dimension %d", next.Dim(), r.dim)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cur.Load()
	if r.audit != nil {
		if err := r.audit(old.Model, next); err != nil {
			r.auditRejects.Add(1)
			return 0, fmt.Errorf("serve: audit gate rejected candidate model: %w", err)
		}
	}
	snap := &Snapshot{Version: old.Version + 1, Model: next, PromotedAt: r.now()}
	r.cur.Store(snap)
	r.swaps.Add(1)
	return snap.Version, nil
}

// SpotAudit returns an audit gate that rechecks monotonicity of the
// candidate over a fixed probe set plus both models' anchor points —
// the Chen–Servedio–Tan-style cheap spot-check on the promotion path.
// AnchorSet models are monotone by construction, so for them this
// guards against corrupted or hand-edited models; the probe set keeps
// the check O(|probes|²) rather than dataset-sized.
func SpotAudit(probes []geom.Point) AuditFunc {
	return func(old, next *classifier.AnchorSet) error {
		pts := make([]geom.Point, 0, len(probes)+len(old.Anchors())+len(next.Anchors()))
		for _, p := range probes {
			if len(p) == next.Dim() {
				pts = append(pts, p)
			}
		}
		pts = append(pts, old.Anchors()...)
		pts = append(pts, next.Anchors()...)
		if ok, p, q := classifier.IsMonotoneOn(pts, next); !ok {
			return fmt.Errorf("monotonicity violation on probe set: h(%v)=0 but it dominates %v with h=1", p, q)
		}
		return nil
	}
}

// HoldoutAudit returns an audit gate that rejects any candidate whose
// weighted error on a labeled holdout set exceeds maxWErr — the "new
// model must not be worse than this budget" promotion rule.
func HoldoutAudit(holdout geom.WeightedSet, maxWErr float64) AuditFunc {
	return func(_, next *classifier.AnchorSet) error {
		werr := geom.WErr(holdout, next.Classify)
		if werr > maxWErr {
			return fmt.Errorf("holdout weighted error %g exceeds budget %g", werr, maxWErr)
		}
		return nil
	}
}

// ChainAudits composes audit gates; the first rejection wins.
func ChainAudits(fns ...AuditFunc) AuditFunc {
	return func(old, next *classifier.AnchorSet) error {
		for _, fn := range fns {
			if fn == nil {
				continue
			}
			if err := fn(old, next); err != nil {
				return err
			}
		}
		return nil
	}
}
