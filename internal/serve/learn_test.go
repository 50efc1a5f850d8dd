package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/online"
	"monoclass/internal/testutil"
)

// waitOnlineStats polls /stats until pred is satisfied or the
// deadline passes, returning the last snapshot.
func waitOnlineStats(t *testing.T, url string, pred func(*OnlineStats) bool) *OnlineStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var snap StatsSnapshot
		getJSON(t, url+"/stats", &snap)
		if snap.Online == nil {
			t.Fatal("/stats has no online section")
		}
		if pred(snap.Online) || time.Now().After(deadline) {
			return snap.Online
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLearnEndToEnd drives the full loop over HTTP: POST /learn
// inserts shift the decision boundary, the updater republishes through
// the registry, and /classify starts answering with the new model at a
// bumped version.
func TestLearnEndToEnd(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, err := NewServer(classifier.ConstNegative(2), Config{
		Online: &OnlineConfig{RebuildEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Before learning: everything classifies negative.
	var cr classifyResponse
	if code := postJSON(t, hs.URL+"/classify", `{"point":[5,5]}`, &cr); code != 200 || cr.Label != 0 {
		t.Fatalf("pre-learn classify = (%d, %+v)", code, cr)
	}

	var lr learnResponse
	code := postJSON(t, hs.URL+"/learn",
		`{"deltas":[{"op":"insert","point":[2,2],"label":1,"weight":3},
		            {"op":"insert","point":[4,1],"label":0,"weight":1}]}`, &lr)
	if code != 202 || lr.Accepted != 2 {
		t.Fatalf("/learn = (%d, %+v), want (202, accepted 2)", code, lr)
	}
	st := waitOnlineStats(t, hs.URL, func(o *OnlineStats) bool { return o.Inserts == 2 && o.QueueDepth == 0 })
	if st.Inserts != 2 || st.ExactSolves < 2 {
		t.Fatalf("after drain: %+v", st)
	}

	// The learned anchor (2,2) must now classify positive, at a version
	// above the initial 1.
	if code := postJSON(t, hs.URL+"/classify", `{"point":[5,5]}`, &cr); code != 200 {
		t.Fatalf("post-learn classify status %d", code)
	}
	if cr.Label != 1 || cr.Version < 2 {
		t.Fatalf("post-learn classify = %+v, want label 1 at version ≥ 2", cr)
	}
	if code := postJSON(t, hs.URL+"/classify", `{"point":[1,1]}`, &cr); code != 200 || cr.Label != 0 {
		t.Fatalf("below-anchor classify = (%d, %+v), want label 0", code, cr)
	}

	// Deleting the positive point retracts the boundary.
	if code := postJSON(t, hs.URL+"/learn",
		`{"deltas":[{"op":"delete","point":[2,2],"label":1}]}`, &lr); code != 202 {
		t.Fatalf("/learn delete status %d", code)
	}
	waitOnlineStats(t, hs.URL, func(o *OnlineStats) bool { return o.Deletes == 1 && o.QueueDepth == 0 })
	if code := postJSON(t, hs.URL+"/classify", `{"point":[5,5]}`, &cr); code != 200 || cr.Label != 0 {
		t.Fatalf("post-delete classify = (%d, %+v), want label 0", code, cr)
	}
}

// TestLearnValidation covers the 4xx surface of /learn.
func TestLearnValidation(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, err := NewServer(classifier.ConstNegative(2), Config{
		MaxClientBatch: 4,
		Online:         &OnlineConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"garbage", `{`, 400},
		{"empty", `{"deltas":[]}`, 400},
		{"unknown op", `{"deltas":[{"op":"upsert","point":[1,2],"label":1,"weight":1}]}`, 400},
		{"wrong dim", `{"deltas":[{"op":"insert","point":[1],"label":1,"weight":1}]}`, 400},
		{"bad label", `{"deltas":[{"op":"insert","point":[1,2],"label":3,"weight":1}]}`, 400},
		{"zero weight", `{"deltas":[{"op":"insert","point":[1,2],"label":1}]}`, 400},
		{"negative weight", `{"deltas":[{"op":"insert","point":[1,2],"label":1,"weight":-1}]}`, 400},
		{"oversized", `{"deltas":[` + strings.Repeat(`{"op":"insert","point":[1,2],"label":1,"weight":1},`, 4) +
			`{"op":"insert","point":[1,2],"label":1,"weight":1}]}`, 413},
	}
	for _, tc := range cases {
		var er errorResponse
		if code := postJSON(t, hs.URL+"/learn", tc.body, &er); code != tc.wantCode {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, er.Error, tc.wantCode)
		}
	}
	// A bad delta anywhere in the batch rejects the whole batch: the
	// valid first delta must not have been applied.
	var er errorResponse
	if code := postJSON(t, hs.URL+"/learn",
		`{"deltas":[{"op":"insert","point":[1,2],"label":1,"weight":1},
		            {"op":"insert","point":[1],"label":1,"weight":1}]}`, &er); code != 400 {
		t.Fatalf("mixed batch status %d", code)
	}
	if !strings.Contains(er.Error, "delta 1") {
		t.Errorf("mixed-batch error does not name the bad delta: %q", er.Error)
	}
	var snap StatsSnapshot
	getJSON(t, hs.URL+"/stats", &snap)
	if snap.Online.Inserts != 0 {
		t.Errorf("rejected batches still applied %d inserts", snap.Online.Inserts)
	}
	// Delete of an absent point is accepted (202) and surfaces as a
	// counted miss, not an HTTP error.
	var lr learnResponse
	if code := postJSON(t, hs.URL+"/learn",
		`{"deltas":[{"op":"delete","point":[9,9],"label":1}]}`, &lr); code != 202 {
		t.Fatalf("delete-of-absent status %d", code)
	}
	st := waitOnlineStats(t, hs.URL, func(o *OnlineStats) bool { return o.DeleteMisses == 1 })
	if st.DeleteMisses != 1 {
		t.Fatalf("delete miss not counted: %+v", st)
	}
}

// TestLearnDisabled: servers without OnlineConfig answer 404 and show
// no online stats section.
func TestLearnDisabled(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, err := NewServer(classifier.ConstNegative(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if code := postJSON(t, hs.URL+"/learn", `{"deltas":[{"op":"insert","point":[1],"label":1,"weight":1}]}`, nil); code != 404 {
		t.Fatalf("/learn without online config: status %d, want 404", code)
	}
	var snap StatsSnapshot
	getJSON(t, hs.URL+"/stats", &snap)
	if snap.Online != nil {
		t.Error("online stats present without online config")
	}
}

// TestLearnBackpressure parks the learner inside a blocking Audit and
// overfills the delta queue: the overflowing batch must get 429 with
// "Retry-After: 1", report how many deltas still fit, and count the
// rest as rejected; the accepted ones are applied once the learner is
// released.
func TestLearnBackpressure(t *testing.T) {
	testutil.CheckGoroutines(t)
	release := make(chan struct{})
	parked := make(chan struct{})
	var once sync.Once
	audit := func(_, _ *classifier.AnchorSet) error {
		once.Do(func() {
			close(parked)
			<-release
		})
		return nil
	}
	const queueCap = 4
	srv, err := NewServer(classifier.ConstNegative(1), Config{
		Audit:  audit,
		Online: &OnlineConfig{RebuildEvery: 1, QueueCap: queueCap},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark()

	// The first delta's exact re-solve publishes into the audit, which
	// parks the learner with that delta taken off the queue.
	insert := `{"op":"insert","point":[1],"label":1,"weight":1}`
	if code := postJSON(t, hs.URL+"/learn", `{"deltas":[`+insert+`]}`, nil); code != 202 {
		t.Fatalf("first /learn status %d, want 202", code)
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("learner never reached the audit")
	}

	const sent = queueCap + 2
	resp, err := http.Post(hs.URL+"/learn", "application/json",
		strings.NewReader(`{"deltas":[`+strings.TrimSuffix(strings.Repeat(insert+",", sent), ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	var lr learnResponse
	err = json.NewDecoder(resp.Body).Decode(&lr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 429 {
		t.Fatalf("overflowing /learn status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("429 with Retry-After %q, want \"1\"", ra)
	}
	if lr.Accepted != queueCap || lr.QueueDepth != queueCap {
		t.Errorf("429 body %+v, want accepted = queue_depth = %d", lr, queueCap)
	}
	// /stats reads the updater, which the parked learner holds, so read
	// the server counters directly.
	var snap StatsSnapshot
	srv.stats.snapshotCounters(&snap)
	if snap.Rejected != sent-queueCap {
		t.Errorf("rejected counter = %d, want %d", snap.Rejected, sent-queueCap)
	}

	unpark()
	st := waitOnlineStats(t, hs.URL, func(o *OnlineStats) bool { return o.Inserts == 1+queueCap && o.QueueDepth == 0 })
	if st.Inserts != 1+queueCap {
		t.Errorf("applied %d inserts after release, want %d", st.Inserts, 1+queueCap)
	}
}

// TestLearnAuditGate wires a holdout audit that rejects any model
// mislabeling the holdout: learned promotions that violate it are
// rejected, the served model stays put, and the rejection is counted
// on both the registry and updater sides.
func TestLearnAuditGate(t *testing.T) {
	testutil.CheckGoroutines(t)
	holdout := geom.WeightedSet{{P: geom.Point{5}, Label: geom.Negative, Weight: 1}}
	srv, err := NewServer(classifier.ConstNegative(1), Config{
		Audit:  HoldoutAudit(holdout, 0),
		Online: &OnlineConfig{RebuildEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	// Learning (1,Positive) yields a model that labels 5 positive —
	// exactly what the holdout forbids.
	if code := postJSON(t, hs.URL+"/learn", `{"deltas":[{"op":"insert","point":[1],"label":1,"weight":1}]}`, nil); code != 202 {
		t.Fatalf("/learn status %d", code)
	}
	st := waitOnlineStats(t, hs.URL, func(o *OnlineStats) bool { return o.PublishRejects == 1 })
	if st.PublishRejects != 1 {
		t.Fatalf("audit rejection not counted: %+v", st)
	}
	var cr classifyResponse
	if code := postJSON(t, hs.URL+"/classify", `{"point":[5]}`, &cr); code != 200 || cr.Label != 0 || cr.Version != 1 {
		t.Fatalf("audited-out model leaked: (%d, %+v)", code, cr)
	}
}

// TestLearnChurnStorm is the race/churn satellite: a concurrent delta
// stream, a classify storm, and external registry swaps all running
// against one server (extending the PR 4 swap-storm pattern). The
// assertions are structural — versions only move forward, every
// accepted delta is eventually accounted for, and the updater's
// maintained error matches an independent rescore after the dust
// settles — with the race detector and the goroutine-leak checker
// doing the memory-model work. Run under make race.
func TestLearnChurnStorm(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, err := NewServer(classifier.ConstNegative(2), Config{
		Batch:  BatcherConfig{QueueCap: 4096, Workers: 2},
		Online: &OnlineConfig{RebuildEvery: 16, QueueCap: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	pipe := srv.Learner()
	reg := srv.Registry()

	const (
		learners    = 4
		perLearner  = 150
		classifiers = 8
		perClassify = 200
		swappers    = 1
		swapCount   = 25
	)
	var (
		wg       sync.WaitGroup
		accepted atomic.Int64
		versionV atomic.Int64 // watermark: versions must never regress
	)

	// Delta stream: mostly inserts on a small grid, some deletes that
	// may miss — both must be survivable at full concurrency.
	wg.Add(learners)
	for l := 0; l < learners; l++ {
		go func(l int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(l) + 101))
			for i := 0; i < perLearner; i++ {
				d := online.Delta{
					Op:     online.OpInsert,
					Point:  geom.Point{float64(rng.Intn(6)), float64(rng.Intn(6))},
					Label:  geom.Label(rng.Intn(2)),
					Weight: float64(1 + rng.Intn(3)),
				}
				if rng.Intn(4) == 0 {
					d.Op, d.Weight = online.OpDelete, 0
				}
				for {
					err := pipe.Enqueue(d)
					if err == nil {
						accepted.Add(1)
						break
					}
					if !errors.Is(err, online.ErrQueueFull) {
						t.Errorf("enqueue: %v", err)
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(l)
	}

	// Classify storm over HTTP, checking only protocol-level sanity
	// (any label is legal while models churn, but versions move one
	// way and 5xx is never acceptable).
	wg.Add(classifiers)
	for c := 0; c < classifiers; c++ {
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 201))
			for i := 0; i < perClassify; i++ {
				var cr classifyResponse
				body := fmt.Sprintf(`{"point":[%d,%d]}`, rng.Intn(6), rng.Intn(6))
				resp, err := http.Post(hs.URL+"/classify", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("classify: %v", err)
					return
				}
				code := resp.StatusCode
				if code == 200 {
					if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
						t.Errorf("classify decode: %v", err)
					}
				}
				resp.Body.Close()
				switch {
				case code == 200:
					for {
						old := versionV.Load()
						if cr.Version >= old {
							if versionV.CompareAndSwap(old, cr.Version) {
								break
							}
							continue
						}
						// A version below a previously observed one is only
						// legal if it was read before that observation — the
						// batcher guarantees per-batch snapshots, not global
						// ordering across goroutines. Registry-level
						// monotonicity is asserted via reg.Version below.
						break
					}
				case code == 429 || code == 503:
					// Backpressure/shutdown race: legal.
				default:
					t.Errorf("classify status %d", code)
				}
			}
		}(c)
	}

	// External swapper racing the updater's own publishes through the
	// same mutex-serialized registry.
	wg.Add(swappers)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(301))
		last := reg.Version()
		for i := 0; i < swapCount; i++ {
			m := classifier.MustAnchorSet(2, []geom.Point{{float64(rng.Intn(6)), float64(rng.Intn(6))}})
			if _, err := reg.Swap(m); err != nil {
				t.Errorf("external swap: %v", err)
				return
			}
			if v := reg.Version(); v <= last {
				t.Errorf("registry version regressed: %d after %d", v, last)
			} else {
				last = v
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	wg.Wait()
	// Drain the learn queue, then verify global accounting and the
	// updater's werr invariant on the settled state.
	u := pipe.Updater()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := u.Stats()
	if got := int64(st.Inserts + st.Deletes + st.DeleteMisses); got != accepted.Load() {
		t.Errorf("accounted for %d deltas, accepted %d", got, accepted.Load())
	}
	if rescore := geom.WErr(u.Live(), u.Model().Classify); !almostEqServe(rescore, u.WErr()) {
		t.Errorf("maintained werr %g, rescore %g", u.WErr(), rescore)
	}
	if st.ExactSolves == 0 {
		t.Error("storm ran no exact solves")
	}
	t.Logf("churn: %d deltas (%d misses), %d exact solves, %d interim, %d swaps, final version %d, live %d",
		accepted.Load(), st.DeleteMisses, st.ExactSolves, st.InterimAdoptions, reg.Swaps(), reg.Version(), st.Live)
}

func almostEqServe(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
