package online

import (
	"errors"
	"sync"
)

// Pipeline errors surfaced to callers (mapped to HTTP statuses by the
// serving layer: ErrQueueFull → 429, ErrClosed → 503).
var (
	// ErrQueueFull means the bounded delta queue was full; the caller
	// should back off and retry.
	ErrQueueFull = errors.New("online: learn queue full")
	// ErrClosed means the pipeline has begun (or finished) shutdown.
	ErrClosed = errors.New("online: pipeline closed")
)

// PipelineConfig tunes the asynchronous delta intake. The zero value
// gets defaults from normalize.
type PipelineConfig struct {
	// QueueCap bounds the intake queue; Enqueue fails fast with
	// ErrQueueFull beyond it (default 1024).
	QueueCap int
	// MaxBatch caps how many queued deltas the worker coalesces into
	// one ApplyBatch lock hold (default 256). Coalescing matters under
	// bursts: the rebuild policy counts deltas, not batches, so one
	// long lock hold applies many cheap deltas between exact solves
	// instead of paying lock churn per delta.
	MaxBatch int
}

func (c *PipelineConfig) normalize() {
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
}

// Pipeline is the asynchronous front of an Updater: a bounded delta
// queue drained by one worker goroutine that coalesces bursts,
// mirroring the classify batcher's backpressure discipline (fail-fast
// intake, lossless drain on Close). One worker is the right number —
// deltas serialize on the updater mutex anyway, and a single drainer
// preserves arrival order, which delete-matching (FIFO among
// duplicates) depends on.
type Pipeline struct {
	u    *Updater
	cfg  PipelineConfig
	done chan struct{}

	queue chan Delta
	// mu guards the Enqueue-vs-Close race: Enqueue sends on queue only
	// while closed=false under the read lock, so Close can safely
	// close the channel under the write lock.
	mu     sync.RWMutex
	closed bool
}

// NewPipeline starts the worker goroutine over u.
func NewPipeline(u *Updater, cfg PipelineConfig) *Pipeline {
	cfg.normalize()
	p := &Pipeline{
		u:     u,
		cfg:   cfg,
		queue: make(chan Delta, cfg.QueueCap),
		done:  make(chan struct{}),
	}
	go p.worker()
	return p
}

// Updater returns the updater this pipeline feeds.
func (p *Pipeline) Updater() *Updater { return p.u }

// QueueDepth reports how many deltas are waiting (a gauge for /stats).
func (p *Pipeline) QueueDepth() int { return len(p.queue) }

// QueueCap reports the bounded queue's capacity.
func (p *Pipeline) QueueCap() int { return p.cfg.QueueCap }

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
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.queue <- d:
		return nil
	default:
		return ErrQueueFull
	}
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
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return 0, ErrClosed
	}
	for i, d := range ds {
		select {
		case p.queue <- d:
		default:
			return i, ErrQueueFull
		}
	}
	return len(ds), nil
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
func (p *Pipeline) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return
	}
	p.closed = true
	p.mu.Unlock()
	// No Enqueue can be sending now (they check closed under RLock
	// while holding the send), so closing queue is safe; the worker
	// drains the buffered remainder before exiting.
	close(p.queue)
	<-p.done
}

// worker drains the queue: block for a first delta, greedily coalesce
// whatever else is already queued (up to MaxBatch), apply under one
// lock hold. Soft per-delta failures (delete misses, racing
// validation) skip the offending delta and continue — they are
// counted in the updater stats, never fatal to the stream.
func (p *Pipeline) worker() {
	defer close(p.done)
	batch := make([]Delta, 0, p.cfg.MaxBatch)
	for {
		first, ok := <-p.queue
		if !ok {
			return
		}
		batch = append(batch[:0], first)
	fill:
		for len(batch) < p.cfg.MaxBatch {
			select {
			case d, ok := <-p.queue:
				if !ok {
					break fill
				}
				batch = append(batch, d)
			default:
				break fill
			}
		}
		rest := batch
		for len(rest) > 0 {
			n, err := p.u.ApplyBatch(rest)
			if err == nil {
				break
			}
			rest = rest[n+1:] // skip the failed delta, keep the stream alive
		}
	}
}
