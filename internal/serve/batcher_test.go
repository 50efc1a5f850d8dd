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
	b := NewBatcher(fixedSource(h, 7), BatcherConfig{MaxBatch: 4}, nil)
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

// TestBatcherCoalesces: park the single worker on a plug request, pile
// a backlog into the queue, release — the backlog must drain in full
// MaxBatch-sized batches, visible in the size histogram.
func TestBatcherCoalesces(t *testing.T) {
	testutil.CheckGoroutines(t)
	stats := &Stats{}
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	h := funcClassifier(func(p geom.Point) geom.Label {
		once.Do(func() { close(started) })
		<-release
		return geom.Negative
	})
	b := NewBatcher(fixedSource(h, 1), BatcherConfig{
		MaxBatch: 8, QueueCap: 64, Workers: 1,
	}, stats)
	defer b.Close()

	var wg sync.WaitGroup
	submit := func() {
		defer wg.Done()
		if _, err := b.Submit(context.Background(), geom.Point{0}); err != nil {
			t.Errorf("Submit: %v", err)
		}
	}
	// Plug: the queue is empty when the worker picks this up, so it
	// classifies a batch of exactly 1 and parks on release.
	wg.Add(1)
	go submit()
	<-started

	const backlog = 16
	wg.Add(backlog)
	for i := 0; i < backlog; i++ {
		go submit()
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.QueueDepth() < backlog && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.QueueDepth() != backlog {
		t.Fatalf("queue depth = %d, want %d", b.QueueDepth(), backlog)
	}
	close(release)
	wg.Wait()

	var snap StatsSnapshot
	stats.snapshotCounters(&snap)
	if snap.BatchPoints != backlog+1 {
		t.Fatalf("batch points = %d, want %d", snap.BatchPoints, backlog+1)
	}
	// 1 plug + 16 queued = batches of 1, 8, 8.
	if snap.Batches != 3 {
		t.Errorf("batches = %d (hist %v), want 3", snap.Batches, snap.BatchSizeHist)
	}
	if snap.BatchSizeHist["8"] != 2 || snap.BatchSizeHist["1"] != 1 {
		t.Errorf("histogram %v, want {1:1 8:2}", snap.BatchSizeHist)
	}
	if snap.MeanBatch < 5 || snap.MeanBatch > 6 {
		t.Errorf("mean batch = %g, want 17/3", snap.MeanBatch)
	}
}

// kernelCounter wraps a model and counts its batch-kernel calls.
type kernelCounter struct {
	*classifier.AnchorSet
	calls atomic.Int64
}

func (k *kernelCounter) ClassifyBatchInto(dst []geom.Label, pts []geom.Point) {
	k.calls.Add(1)
	k.AnchorSet.ClassifyBatchInto(dst, pts)
}

// TestBatcherBatchKernel: when the model implements
// classifier.BatchClassifier (AnchorSet does), a coalesced batch must
// be scored through the batch kernel with per-slot answers intact. The
// source parks the single worker on its first read, so a full batch
// queues up behind that plug request.
func TestBatcherBatchKernel(t *testing.T) {
	testutil.CheckGoroutines(t)
	stats := &Stats{}
	h := &kernelCounter{AnchorSet: thresholdModel(t, 5)}
	release := make(chan struct{})
	parked := make(chan struct{})
	var once sync.Once
	src := func() (classifier.Classifier, int64) {
		once.Do(func() {
			close(parked)
			<-release
		})
		return h, 3
	}
	const n = 8
	b := NewBatcher(src, BatcherConfig{MaxBatch: n, QueueCap: 64, Workers: 1}, stats)
	defer b.Close()
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark()

	var wg sync.WaitGroup
	submit := func(x float64) {
		defer wg.Done()
		res, err := b.Submit(context.Background(), geom.Point{x})
		if err != nil {
			t.Errorf("Submit(%g): %v", x, err)
			return
		}
		if want := h.Classify(geom.Point{x}); res.Label != want || res.Version != 3 {
			t.Errorf("Submit(%g) = (%v, v%d), want (%v, v3)", x, res.Label, res.Version, want)
		}
	}
	wg.Add(1)
	go submit(1)
	<-parked

	xs := []float64{4.9, 5, 100, -3, 5.1, 0, 4.999, 7}
	wg.Add(n)
	for _, x := range xs {
		go submit(x)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.QueueDepth() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.QueueDepth() != n {
		t.Fatalf("queue depth = %d, want %d", b.QueueDepth(), n)
	}
	unpark()
	wg.Wait()

	var snap StatsSnapshot
	stats.snapshotCounters(&snap)
	if snap.BatchPoints != n+1 || snap.BatchSizeHist["1"] != 1 || snap.BatchSizeHist["8"] != 1 {
		t.Errorf("batch points %d, histogram %v; want %d points as {1:1 8:1}", snap.BatchPoints, snap.BatchSizeHist, n+1)
	}
	// The plug went through Classify; the backlog batch is the one
	// kernel call.
	if got := h.calls.Load(); got != 1 {
		t.Errorf("batch kernel calls = %d, want 1", got)
	}
}

// TestBatcherLoneRequest: a worker never holds a request back for
// company, so a lone Submit at MaxBatch 1024 is answered as a batch of
// one.
func TestBatcherLoneRequest(t *testing.T) {
	testutil.CheckGoroutines(t)
	stats := &Stats{}
	b := NewBatcher(fixedSource(thresholdModel(t, 0), 1), BatcherConfig{MaxBatch: 1024, Workers: 1}, stats)
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
		MaxBatch: 1, QueueCap: 2, Workers: 1,
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
		MaxBatch: 4, QueueCap: 256, Workers: 2,
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
	b := NewBatcher(fixedSource(h, 1), BatcherConfig{MaxBatch: 1, QueueCap: 8, Workers: 1}, nil)
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
	if b.cfg.MaxBatch != 32 || b.cfg.QueueCap != 1024 || b.cfg.Workers != runtime.GOMAXPROCS(0) {
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
