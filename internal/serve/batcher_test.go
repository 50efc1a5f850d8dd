package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/testutil"
)

// fixedSource serves one classifier at a fixed version.
func fixedSource(h classifier.Classifier, version int64) Source {
	return func() (classifier.Classifier, int64) { return h, version }
}

// funcClassifier adapts a function to the Classifier interface, for
// slow/blocking classifiers in backpressure tests.
type funcClassifier func(geom.Point) geom.Label

func (f funcClassifier) Classify(p geom.Point) geom.Label { return f(p) }

func TestBatcherClassifiesCorrectly(t *testing.T) {
	testutil.CheckGoroutines(t)
	h := thresholdModel(t, 5)
	b := NewBatcher(fixedSource(h, 7), BatcherConfig{}, nil)
	defer b.Close()
	for _, tc := range []struct {
		x    float64
		want geom.Label
	}{{4.9, geom.Negative}, {5, geom.Positive}, {100, geom.Positive}, {-3, geom.Negative}} {
		res, err := b.Submit(context.Background(), geom.Point{tc.x})
		if err != nil {
			t.Fatal(err)
		}
		if res.Label != tc.want {
			t.Errorf("Submit(%g) = %v, want %v", tc.x, res.Label, tc.want)
		}
		if res.Version != 7 {
			t.Errorf("Submit(%g) version = %d, want 7", tc.x, res.Version)
		}
	}
}

// TestBatcherLoneRequest: a worker never holds a request back for
// company, so a lone Submit is answered at once as a batch of one.
func TestBatcherLoneRequest(t *testing.T) {
	testutil.CheckGoroutines(t)
	stats := &Stats{}
	b := NewBatcher(fixedSource(thresholdModel(t, 0), 1), BatcherConfig{Workers: 1}, stats)
	defer b.Close()
	res, err := b.Submit(context.Background(), geom.Point{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != geom.Positive {
		t.Errorf("Submit(1) = %v, want positive", res.Label)
	}
	var snap StatsSnapshot
	stats.snapshotCounters(&snap)
	if snap.Batches != 1 || len(snap.BatchSizeHist) != 1 || snap.BatchSizeHist["1"] != 1 {
		t.Errorf("batches %d, histogram %v; want {1:1}", snap.Batches, snap.BatchSizeHist)
	}
}

// TestBatcherQueueFull: with the worker parked on a plug request and
// the queue full, the next Submit must be rejected, not block. The
// plug is taken off the queue before the backlog is sent, so the
// backlog fits exactly.
func TestBatcherQueueFull(t *testing.T) {
	testutil.CheckGoroutines(t)
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	h := funcClassifier(func(geom.Point) geom.Label {
		once.Do(func() { close(started) })
		<-release
		return geom.Negative
	})
	b := NewBatcher(fixedSource(h, 1), BatcherConfig{
		QueueCap: 2, Workers: 1,
	}, nil)
	defer b.Close()
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark()

	results := make(chan error, 3)
	submit := func() {
		_, err := b.Submit(context.Background(), geom.Point{0})
		results <- err
	}
	go submit()
	<-started
	go submit()
	go submit()
	deadline := time.Now().Add(5 * time.Second)
	for b.QueueDepth() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.QueueDepth() != 2 {
		t.Fatalf("queue depth = %d, want 2", b.QueueDepth())
	}
	if _, err := b.Submit(context.Background(), geom.Point{0}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit returned %v, want ErrQueueFull", err)
	}
	unpark()
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued Submit failed: %v", err)
		}
	}
}

// TestBatcherDrainOnClose: requests accepted before Close must all be
// answered, and Submits racing with Close must either be answered or
// fail cleanly with ErrClosed — never hang, never panic.
func TestBatcherDrainOnClose(t *testing.T) {
	testutil.CheckGoroutines(t)
	var classified atomic.Int64
	h := funcClassifier(func(geom.Point) geom.Label {
		classified.Add(1)
		return geom.Positive
	})
	b := NewBatcher(fixedSource(h, 1), BatcherConfig{
		QueueCap: 256, Workers: 2,
	}, nil)

	const n = 100
	var accepted atomic.Int64
	var answered atomic.Int64
	var closedErrs atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			_, err := b.Submit(context.Background(), geom.Point{1})
			switch {
			case err == nil:
				accepted.Add(1)
				answered.Add(1)
			case errors.Is(err, ErrClosed):
				closedErrs.Add(1)
			case errors.Is(err, ErrQueueFull):
				t.Errorf("queue full with capacity 256 and %d requests", n)
			default:
				t.Errorf("unexpected Submit error: %v", err)
			}
		}()
	}
	time.Sleep(2 * time.Millisecond) // let some requests land mid-flight
	b.Close()
	wg.Wait()

	if got := answered.Load() + closedErrs.Load(); got != n {
		t.Fatalf("accounted for %d of %d submits", got, n)
	}
	// Everything answered must actually have been classified.
	if classified.Load() < answered.Load() {
		t.Errorf("classified %d < answered %d", classified.Load(), answered.Load())
	}
	// Close must be idempotent.
	b.Close()
	if _, err := b.Submit(context.Background(), geom.Point{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestBatcherContextCancel(t *testing.T) {
	testutil.CheckGoroutines(t)
	release := make(chan struct{})
	h := funcClassifier(func(geom.Point) geom.Label { <-release; return geom.Negative })
	b := NewBatcher(fixedSource(h, 1), BatcherConfig{QueueCap: 8, Workers: 1}, nil)
	defer func() {
		close(release)
		b.Close()
	}()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, geom.Point{0})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Submit did not return")
	}
}

// TestBatcherDefaults: zero config must normalize to usable values.
func TestBatcherDefaults(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := NewBatcher(fixedSource(thresholdModel(t, 0), 1), BatcherConfig{}, nil)
	defer b.Close()
	if b.cfg.QueueCap != 1024 || b.cfg.Workers != runtime.GOMAXPROCS(0) || b.QueueCap() != 1024 {
		t.Errorf("normalized config = %+v", b.cfg)
	}
	if _, err := b.Submit(context.Background(), geom.Point{1}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBatcherSubmit times one lone Submit round trip: enqueue,
// worker wake-up, a one-point classify and the reply.
func BenchmarkBatcherSubmit(b *testing.B) {
	bat := NewBatcher(fixedSource(thresholdModel(b, 5), 1), BatcherConfig{}, nil)
	defer bat.Close()
	ctx := context.Background()
	pt := geom.Point{7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bat.Submit(ctx, pt); err != nil {
			b.Fatal(err)
		}
	}
}
