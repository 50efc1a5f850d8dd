package serve

import (
	"context"
	"runtime"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/intake"
)

// Batcher errors surfaced to callers (and mapped to HTTP statuses by
// the server: ErrQueueFull → 429, ErrClosed → 503). They are the
// intake queue's own sentinels.
var (
	// ErrQueueFull means the bounded intake queue was full; the caller
	// should back off and retry.
	ErrQueueFull = intake.ErrFull
	// ErrClosed means the batcher has begun (or finished) shutdown.
	ErrClosed = intake.ErrClosed
)

// Source supplies the classifier snapshot a request runs against; a
// worker reads it once per turn.
type Source func() (classifier.Classifier, int64)

// BatcherConfig tunes the dispatch pipeline. The zero value gets
// sensible defaults from normalize.
type BatcherConfig struct {
	// QueueCap bounds the intake queue; Submit fails fast with
	// ErrQueueFull beyond it (default 1024).
	QueueCap int
	// Workers is the number of dispatcher goroutines, each classifying
	// one request per turn (default GOMAXPROCS).
	Workers int
}

// normalize fills config defaults in place.
func (c *BatcherConfig) normalize() {
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Result is one classified point: the label plus the model version
// that produced it.
type Result struct {
	Label   geom.Label
	Version int64
}

// request is one queued point with its reply channel (buffered, so
// workers never block on a caller that gave up).
type request struct {
	pt   geom.Point
	resp chan Result
}

// Batcher dispatches single-point classification requests on arrival:
// each worker turn takes the oldest queued request, reads the model
// source once and answers it. Requests from concurrent clients are
// not coalesced; a client with many points posts them to
// /classify/batch, which runs the batch kernel inline.
type Batcher struct {
	cfg   BatcherConfig
	src   Source
	stats *Stats
	q     *intake.Queue[*request]
}

// NewBatcher starts cfg.Workers dispatcher goroutines reading from a
// bounded queue. stats may be nil.
func NewBatcher(src Source, cfg BatcherConfig, stats *Stats) *Batcher {
	cfg.normalize()
	b := &Batcher{cfg: cfg, src: src, stats: stats}
	b.q = intake.New(cfg.QueueCap, cfg.Workers, 1, b.classify)
	return b
}

// QueueDepth reports how many requests are waiting (a gauge for
// /stats).
func (b *Batcher) QueueDepth() int { return b.q.Len() }

// QueueCap reports the bounded queue's capacity.
func (b *Batcher) QueueCap() int { return b.q.Cap() }

// Submit enqueues one point and waits for its result. It fails fast
// with ErrQueueFull when the queue is at capacity (backpressure) and
// with ErrClosed after Close. ctx cancellation abandons the wait; the
// point may still be classified, but the reply is discarded.
func (b *Batcher) Submit(ctx context.Context, pt geom.Point) (Result, error) {
	req := &request{pt: pt, resp: make(chan Result, 1)}
	if _, err := b.q.Put(req); err != nil {
		return Result{}, err
	}
	select {
	case res := <-req.resp:
		return res, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Close stops intake and drains: every request already queued is still
// classified and answered before Close returns. Safe to call more than
// once.
func (b *Batcher) Close() { b.q.Close() }

// classify answers one worker turn's requests against a single
// snapshot of the source.
func (b *Batcher) classify(reqs []*request) {
	h, version := b.src()
	if b.stats != nil {
		b.stats.ObserveBatch(len(reqs))
	}
	for _, r := range reqs {
		r.resp <- Result{Label: h.Classify(r.pt), Version: version}
	}
}
