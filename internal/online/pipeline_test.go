package online

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/testutil"
)

// TestPipelineDrainEquivalence pushes a random trace through the
// asynchronous pipeline, closes it (lossless drain), and checks the
// end state matches applying the same deltas synchronously.
func TestPipelineDrainEquivalence(t *testing.T) {
	testutil.CheckGoroutines(t)
	const dim, steps = 2, 500
	mkTrace := func(rng *rand.Rand) []Delta {
		var ds []Delta
		live := 0
		for i := 0; i < steps; i++ {
			p := geom.Point{float64(rng.Intn(5)), float64(rng.Intn(5))}
			if live > 0 && rng.Intn(3) == 0 {
				// May miss (wrong label or already-consumed point) — the
				// pipeline must survive those as soft errors.
				ds = append(ds, Delta{Op: OpDelete, Point: p, Label: geom.Label(rng.Intn(2))})
				live--
			} else {
				ds = append(ds, Delta{Op: OpInsert, Point: p, Label: geom.Label(rng.Intn(2)), Weight: float64(1 + rng.Intn(3))})
				live++
			}
		}
		return ds
	}
	trace := mkTrace(rand.New(rand.NewSource(11)))

	sync, err := NewUpdater(dim, nil, Config{RebuildEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range trace {
		if err := sync.Apply(d); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}

	async, err := NewUpdater(dim, nil, Config{RebuildEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(async, PipelineConfig{QueueCap: 64})
	for _, d := range trace {
		for {
			err := p.Enqueue(d)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
			time.Sleep(100 * time.Microsecond) // back off and retry, as a client would
		}
	}
	p.Close()

	// Coalescing changes when rebuilds fire relative to interim grafts,
	// so models may differ mid-policy — but the live multisets must be
	// identical, and after a forced exact solve on each, the optima and
	// assignments must agree.
	sl, al := sync.Live(), async.Live()
	if len(sl) != len(al) {
		t.Fatalf("live sizes differ: sync %d, async %d", len(sl), len(al))
	}
	for i := range sl {
		if !sl[i].P.Equal(al[i].P) || sl[i].Label != al[i].Label || sl[i].Weight != al[i].Weight {
			t.Fatalf("live point %d differs: %v vs %v", i, sl[i], al[i])
		}
	}
	if err := sync.Resolve(); err != nil {
		t.Fatal(err)
	}
	if err := async.Resolve(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(sync.WErr(), async.WErr()) {
		t.Fatalf("optima differ after drain: sync %g, async %g", sync.WErr(), async.WErr())
	}
	ss, as := sync.Stats(), async.Stats()
	if ss.Inserts != as.Inserts || ss.Deletes+ss.DeleteMisses != as.Deletes+as.DeleteMisses {
		t.Fatalf("delta accounting differs: sync %+v, async %+v", ss, as)
	}
}

// TestPipelineBackpressure blocks the worker inside a publish gate,
// fills the bounded queue, and checks Enqueue fails fast with
// ErrQueueFull instead of blocking — the batcher discipline.
func TestPipelineBackpressure(t *testing.T) {
	testutil.CheckGoroutines(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	u, err := NewUpdater(1, nil, Config{
		RebuildEvery: 1, // publish on every delta
		Publish: func(*classifier.AnchorSet) error {
			select {
			case entered <- struct{}{}:
				// First publish (the test is listening): wedge until
				// released. Later publishes find no listener and skip.
				<-release
			default:
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(u, PipelineConfig{QueueCap: 2})
	ins := func(x float64) Delta {
		return Delta{Op: OpInsert, Point: geom.Point{x}, Label: geom.Positive, Weight: 1}
	}
	if err := p.Enqueue(ins(0)); err != nil {
		t.Fatal(err)
	}
	<-entered // worker is now wedged inside the publish gate
	if err := p.Enqueue(ins(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Enqueue(ins(2)); err != nil {
		t.Fatal(err)
	}
	if err := p.Enqueue(ins(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity enqueue: %v, want ErrQueueFull", err)
	}
	close(release)
	p.Close()
	if got := u.Stats().Inserts; got != 3 {
		t.Fatalf("drained %d inserts, want 3", got)
	}
	if err := p.Enqueue(ins(9)); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v, want ErrClosed", err)
	}
	p.Close() // idempotent
}

// TestPipelineEnqueueBatch covers the all-or-nothing validation and
// partial-acceptance contract.
func TestPipelineEnqueueBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	u, err := NewUpdater(2, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(u, PipelineConfig{})
	defer p.Close()
	good := Delta{Op: OpInsert, Point: geom.Point{1, 2}, Label: geom.Positive, Weight: 1}
	bad := Delta{Op: OpInsert, Point: geom.Point{1}, Label: geom.Positive, Weight: 1}
	n, err := p.EnqueueBatch([]Delta{good, bad, good})
	var be *BatchError
	if n != 0 || !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("EnqueueBatch = (%d, %v), want (0, BatchError{Index: 1})", n, err)
	}
	if n, err := p.EnqueueBatch([]Delta{good, good}); n != 2 || err != nil {
		t.Fatalf("EnqueueBatch = (%d, %v), want (2, nil)", n, err)
	}
}
