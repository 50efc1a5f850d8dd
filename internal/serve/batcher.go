package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
)

// Batcher errors surfaced to callers (and mapped to HTTP statuses by
// the server: ErrQueueFull → 429, ErrClosed → 503).
var (
	// ErrQueueFull means the bounded intake queue was full; the caller
	// should back off and retry.
	ErrQueueFull = errors.New("serve: classify queue full")
	// ErrClosed means the batcher has begun (or finished) shutdown.
	ErrClosed = errors.New("serve: batcher closed")
)

// Source supplies the classifier snapshot a batch runs against. Each
// dispatched batch reads the source exactly once, so every point in a
// batch is classified by the same model version.
type Source func() (classifier.Classifier, int64)

// BatcherConfig tunes the dispatch pipeline. The zero value gets
// sensible defaults from normalize.
type BatcherConfig struct {
	// MaxBatch is the largest batch dispatched to the classifier
	// (default 32).
	MaxBatch int
	// QueueCap bounds the intake queue; Submit fails fast with
	// ErrQueueFull beyond it (default 1024).
	QueueCap int
	// Workers is the number of dispatcher goroutines, each building and
	// executing batches independently (default GOMAXPROCS).
	Workers int
}

// normalize fills config defaults in place.
func (c *BatcherConfig) normalize() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
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

// Batcher dispatches single-point classification requests on arrival.
// A worker never waits for company: it takes the first request plus
// whatever else is already queued, so a lone request is answered at
// once and batches form only from a backlog that built up while every
// worker was busy. The hot path per batch is one atomic snapshot read
// plus a tight classify loop.
type Batcher struct {
	cfg   BatcherConfig
	src   Source
	stats *Stats

	queue chan *request
	done  chan struct{} // closed when the last worker exits
	// mu guards the Submit-vs-Close race: Submit sends on queue only
	// while closed=false under the read lock, so Close can safely close
	// the channel under the write lock.
	mu     sync.RWMutex
	closed bool
}

// NewBatcher starts cfg.Workers dispatcher goroutines reading from a
// bounded queue. stats may be nil.
func NewBatcher(src Source, cfg BatcherConfig, stats *Stats) *Batcher {
	cfg.normalize()
	b := &Batcher{
		cfg:   cfg,
		src:   src,
		stats: stats,
		queue: make(chan *request, cfg.QueueCap),
		done:  make(chan struct{}),
	}
	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer wg.Done()
			b.worker()
		}()
	}
	go func() {
		wg.Wait()
		close(b.done)
	}()
	return b
}

// QueueDepth reports how many requests are waiting (a gauge for
// /stats).
func (b *Batcher) QueueDepth() int { return len(b.queue) }

// QueueCap reports the bounded queue's capacity.
func (b *Batcher) QueueCap() int { return b.cfg.QueueCap }

// Submit enqueues one point and waits for its result. It fails fast
// with ErrQueueFull when the queue is at capacity (backpressure) and
// with ErrClosed after Close. ctx cancellation abandons the wait; the
// point may still be classified, but the reply is discarded.
func (b *Batcher) Submit(ctx context.Context, pt geom.Point) (Result, error) {
	req := &request{pt: pt, resp: make(chan Result, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return Result{}, ErrClosed
	}
	select {
	case b.queue <- req:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		return Result{}, ErrQueueFull
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
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	// No Submit can be sending now (they check closed under RLock while
	// holding the send), so closing queue is safe; workers drain the
	// buffered remainder before exiting.
	close(b.queue)
	<-b.done
}

// worker is one dispatcher loop: block for a first request, take
// whatever else is already queued (up to MaxBatch), classify against a
// single snapshot, reply. Multi-point batches route through the
// model's batch kernel (classifier.BatchClassifier) when it has one;
// the worker-local pts/labels scratch keeps the hot loop allocation
// free.
func (b *Batcher) worker() {
	batch := make([]*request, 0, b.cfg.MaxBatch)
	pts := make([]geom.Point, 0, b.cfg.MaxBatch)
	labels := make([]geom.Label, b.cfg.MaxBatch)
	for {
		first, ok := <-b.queue
		if !ok {
			return
		}
		batch = append(batch[:0], first)
	fill:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case r, ok := <-b.queue:
				if !ok {
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}

		h, version := b.src()
		if b.stats != nil {
			b.stats.ObserveBatch(len(batch))
		}
		if bk, ok := h.(classifier.BatchClassifier); ok && len(batch) > 1 {
			pts = pts[:0]
			for _, r := range batch {
				pts = append(pts, r.pt)
			}
			dst := labels[:len(batch)]
			bk.ClassifyBatchInto(dst, pts)
			for i, r := range batch {
				r.resp <- Result{Label: dst[i], Version: version}
			}
			continue
		}
		for _, r := range batch {
			r.resp <- Result{Label: h.Classify(r.pt), Version: version}
		}
	}
}
