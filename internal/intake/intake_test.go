package intake

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monoclass/internal/testutil"
)

// recorder is a handler that keeps every batch it has handled, and can
// park its worker on the first one until release is closed; a batch
// is recorded when its handling ends.
type recorder struct {
	mu      sync.Mutex
	batches [][]int

	park    bool
	started chan struct{} // closed when the first batch arrives
	release chan struct{}
	once    sync.Once
}

func newRecorder(park bool) *recorder {
	return &recorder{park: park, started: make(chan struct{}), release: make(chan struct{})}
}

func (r *recorder) handle(batch []int) {
	first := false
	r.once.Do(func() { first = true; close(r.started) })
	if first && r.park {
		<-r.release
	}
	r.mu.Lock()
	r.batches = append(r.batches, append([]int(nil), batch...))
	r.mu.Unlock()
}

// items returns every handled item in handling order.
func (r *recorder) items() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for _, b := range r.batches {
		out = append(out, b...)
	}
	return out
}

// TestPutFull: with the worker parked and the queue full, Put fails
// fast with ErrFull and the count it queued before the queue filled.
func TestPutFull(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := newRecorder(true)
	q := New(2, 1, 8, r.handle)
	if n, err := q.Put(0); n != 1 || err != nil {
		t.Fatalf("Put(0) = (%d, %v), want (1, nil)", n, err)
	}
	<-r.started // the worker holds item 0; the queue is empty
	if n, err := q.Put(1, 2, 3); n != 2 || !errors.Is(err, ErrFull) {
		t.Fatalf("Put(1, 2, 3) = (%d, %v), want (2, ErrFull)", n, err)
	}
	if n, err := q.Put(4); n != 0 || !errors.Is(err, ErrFull) {
		t.Fatalf("Put(4) on a full queue = (%d, %v), want (0, ErrFull)", n, err)
	}
	if q.Len() != 2 || q.Cap() != 2 {
		t.Errorf("Len %d Cap %d, want 2 and 2", q.Len(), q.Cap())
	}
	close(r.release)
	q.Close()
	if got, want := r.items(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("handled %v, want %v", got, want)
	}
}

// TestPutAfterClose: once Close has run, Put queues nothing.
func TestPutAfterClose(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := newRecorder(false)
	q := New(4, 2, 4, r.handle)
	q.Close()
	if n, err := q.Put(1, 2); n != 0 || !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = (%d, %v), want (0, ErrClosed)", n, err)
	}
	if len(r.items()) != 0 {
		t.Errorf("handled %v after Close", r.items())
	}
}

// TestLoneItem: a worker hands over a lone item at once instead of
// waiting for the batch to fill.
func TestLoneItem(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := newRecorder(false)
	q := New(64, 1, 64, r.handle)
	defer q.Close()
	if _, err := q.Put(7); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(r.items()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !reflect.DeepEqual(r.batches, [][]int{{7}}) {
		t.Errorf("batches %v, want [[7]] while the queue stays open", r.batches)
	}
}

// TestBatchCapAndOrder: a backlog queued behind a parked worker is
// handed over in batches of at most the cap, in arrival order.
func TestBatchCapAndOrder(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := newRecorder(true)
	q := New(16, 1, 4, r.handle)
	q.Put(-1)
	<-r.started
	backlog := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if n, err := q.Put(backlog...); n != len(backlog) || err != nil {
		t.Fatalf("Put(backlog) = (%d, %v)", n, err)
	}
	close(r.release)
	q.Close()
	want := [][]int{{-1}, {0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}
	if !reflect.DeepEqual(r.batches, want) {
		t.Errorf("batches %v, want %v", r.batches, want)
	}
}

// TestCloseDrains: Close returns only after every accepted item has
// been handled, and every call of it — repeated or concurrent — waits
// for that.
func TestCloseDrains(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := newRecorder(true)
	q := New(32, 2, 4, r.handle)
	q.Put(0)
	<-r.started
	for i := 1; i <= 20; i++ {
		if _, err := q.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	const closers = 4
	var returned atomic.Int64
	var wg sync.WaitGroup
	wg.Add(closers)
	for range closers {
		go func() {
			defer wg.Done()
			q.Close()
			returned.Add(1)
			if got := len(r.items()); got != 21 {
				t.Errorf("Close returned with %d of 21 items handled", got)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if returned.Load() != 0 {
		t.Fatal("Close returned while an accepted item was still being handled")
	}
	close(r.release)
	wg.Wait()
	q.Close() // once more, after the drain
	if got := len(r.items()); got != 21 {
		t.Errorf("handled %d items, want 21", got)
	}
}

// TestPutCloseRace: goroutines Put while Close runs. No Put may send on
// the closed channel, and every item whose Put succeeded is handled.
func TestPutCloseRace(t *testing.T) {
	testutil.CheckGoroutines(t)
	var handled atomic.Int64
	q := New(1024, 2, 8, func(b []int) { handled.Add(int64(len(b))) })
	const putters, perPutter = 16, 64
	var accepted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(putters)
	for p := range putters {
		go func() {
			defer wg.Done()
			for i := range perPutter {
				n, err := q.Put(p*perPutter+i, -1)
				accepted.Add(int64(n))
				switch {
				case err == nil, errors.Is(err, ErrFull):
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("Put: %v", err)
					return
				}
			}
		}()
	}
	for accepted.Load() == 0 {
		runtime.Gosched() // close once some Puts have landed
	}
	q.Close()
	wg.Wait()
	if handled.Load() != accepted.Load() {
		t.Errorf("handled %d items, accepted %d", handled.Load(), accepted.Load())
	}
}
