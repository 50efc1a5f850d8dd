// Package intake is the bounded work queue behind both serving
// intakes: the /classify batcher (serve.Batcher) and the /learn delta
// pipeline (online.Pipeline). It owns the protocol they share:
// fail-fast Put, workers that never wait for company, and a Close
// that stops intake and drains every accepted item before returning.
package intake

import (
	"errors"
	"sync"
)

// The queue's two failures. The serving layer maps them to HTTP
// statuses: ErrFull → 429, ErrClosed → 503.
var (
	// ErrFull means the bounded queue had no room; the caller should
	// back off and retry.
	ErrFull = errors.New("intake: queue full")
	// ErrClosed means Close has begun (or finished).
	ErrClosed = errors.New("intake: closed")
)

// Queue is a bounded FIFO drained by a fixed set of worker goroutines.
// Each worker blocks for a first item, then hands its handler that
// item plus whatever else is already queued, up to the batch cap and
// in arrival order; a lone item is handled at once.
type Queue[T any] struct {
	ch   chan T
	done chan struct{} // closed when the last worker exits

	// mu guards the Put-vs-Close race: Put sends on ch only while
	// closed is false under the read lock, so Close can close ch under
	// the write lock.
	mu     sync.RWMutex
	closed bool
}

// New starts workers goroutines draining a queue of capacity items;
// each call of handle gets between 1 and maxBatch items. handle must
// not retain the slice, which its worker reuses.
func New[T any](capacity, workers, maxBatch int, handle func([]T)) *Queue[T] {
	q := &Queue[T]{ch: make(chan T, capacity), done: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			q.work(maxBatch, handle)
		}()
	}
	go func() {
		wg.Wait()
		close(q.done)
	}()
	return q
}

// Put queues items in order until the queue is full. It returns how
// many were queued; err is ErrFull when that is fewer than len(items),
// and ErrClosed, with nothing queued, after Close.
func (q *Queue[T]) Put(items ...T) (int, error) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return 0, ErrClosed
	}
	for i, it := range items {
		select {
		case q.ch <- it:
		default:
			return i, ErrFull
		}
	}
	return len(items), nil
}

// Len reports how many items are waiting (a gauge for /stats).
func (q *Queue[T]) Len() int { return len(q.ch) }

// Cap reports the queue's capacity.
func (q *Queue[T]) Cap() int { return cap(q.ch) }

// Close stops intake and returns once every accepted item has been
// handled. It is safe to call more than once, also concurrently.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		// No Put holds the read lock now, so no send can race the close;
		// the workers drain what is buffered, then exit.
		close(q.ch)
	}
	q.mu.Unlock()
	<-q.done
}

// work is one worker loop: block for a first item, take whatever else
// is already queued up to maxBatch, hand the batch over.
func (q *Queue[T]) work(maxBatch int, handle func([]T)) {
	batch := make([]T, 0, maxBatch)
	for first := range q.ch {
		batch = append(batch[:0], first)
	fill:
		for len(batch) < maxBatch {
			select {
			case it, ok := <-q.ch:
				if !ok {
					break fill
				}
				batch = append(batch, it)
			default:
				break fill
			}
		}
		handle(batch)
	}
}
