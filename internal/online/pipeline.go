package online

import "monoclass/internal/intake"

// Pipeline errors surfaced to callers (mapped to HTTP statuses by the
// serving layer: ErrQueueFull → 429, ErrClosed → 503). They are the
// intake queue's own sentinels.
var (
	// ErrQueueFull means the bounded delta queue was full; the caller
	// should back off and retry.
	ErrQueueFull = intake.ErrFull
	// ErrClosed means the pipeline has begun (or finished) shutdown.
	ErrClosed = intake.ErrClosed
)

// PipelineConfig tunes the asynchronous delta intake. The zero value
// gets the default capacity.
type PipelineConfig struct {
	// QueueCap bounds the intake queue; Enqueue fails fast with
	// ErrQueueFull beyond it (default 1024).
	QueueCap int
}

// maxApply caps how many queued deltas the worker applies under one
// ApplyBatch lock hold. Deltas that queue up behind an exact re-solve
// are applied together instead of paying lock churn per delta;
// ApplyBatch applies each delta as Apply would, so the cap changes no
// model.
const maxApply = 256

// Pipeline is the asynchronous front of an Updater: a bounded delta
// queue (package intake, shared with the classify batcher) drained by
// one worker goroutine, with fail-fast intake and a lossless drain on
// Close. One worker is the right number — deltas serialize on the
// updater mutex anyway, and a single drainer preserves arrival order,
// which delete-matching (FIFO among duplicates) depends on.
type Pipeline struct {
	u *Updater
	q *intake.Queue[Delta]
}

// NewPipeline starts the worker goroutine over u.
func NewPipeline(u *Updater, cfg PipelineConfig) *Pipeline {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	p := &Pipeline{u: u}
	p.q = intake.New(cfg.QueueCap, 1, maxApply, p.apply)
	return p
}

// Updater returns the updater this pipeline feeds.
func (p *Pipeline) Updater() *Updater { return p.u }

// QueueDepth reports how many deltas are waiting (a gauge for /stats).
func (p *Pipeline) QueueDepth() int { return p.q.Len() }

// QueueCap reports the bounded queue's capacity.
func (p *Pipeline) QueueCap() int { return p.q.Cap() }

// Enqueue validates d synchronously (so malformed requests fail at
// intake with a useful error, not silently inside the worker) and
// queues it for asynchronous application. It fails fast with
// ErrQueueFull at capacity and ErrClosed after Close. Delete-target
// existence is NOT checked here — it depends on queued-but-unapplied
// state — so a delete of an absent point is accepted and later counted
// as a delete miss in the updater stats.
func (p *Pipeline) Enqueue(d Delta) error {
	if err := p.u.Validate(d); err != nil {
		return err
	}
	_, err := p.q.Put(d)
	return err
}

// EnqueueBatch validates every delta first (all-or-nothing on
// validation), then queues them in order until the queue fills. It
// returns how many were accepted; err is ErrQueueFull or ErrClosed
// when accepted < len(ds).
func (p *Pipeline) EnqueueBatch(ds []Delta) (int, error) {
	for i, d := range ds {
		if err := p.u.Validate(d); err != nil {
			return 0, &BatchError{Index: i, Err: err}
		}
	}
	return p.q.Put(ds...)
}

// BatchError reports which delta of an EnqueueBatch failed validation.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying validation error to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// Close stops intake and drains: every delta already queued is still
// applied before Close returns. Safe to call more than once.
func (p *Pipeline) Close() { p.q.Close() }

// apply applies one worker turn's deltas under one lock hold. Soft
// per-delta failures (delete misses, racing validation) skip the
// offending delta and continue — they are counted in the updater
// stats, never fatal to the stream.
func (p *Pipeline) apply(batch []Delta) {
	for len(batch) > 0 {
		n, err := p.u.ApplyBatch(batch)
		if err == nil {
			return
		}
		batch = batch[n+1:] // skip the failed delta, keep the stream alive
	}
}
