package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/testutil"
)

// stressN scales the stress workloads: the acceptance floor is 10k
// classifies against ≥10 swaps; SERVE_STRESS_N raises it for soaks.
func stressN() int {
	if s := os.Getenv("SERVE_STRESS_N"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 10000
}

// TestHotSwapStorm is the acceptance-criteria stress test: 64
// classifier goroutines push ≥10k points through the micro-batcher
// while a swapper hot-swaps ≥10 model versions. Model for version v is
// the 1-D threshold at v, so a response is correct iff its label
// matches its claimed version's model — and the claimed version must
// lie inside the [version-before-submit, version-after-response]
// window. Zero tolerance on both, plus zero goroutine leaks after
// shutdown. Run under -race (make race covers ./...).
func TestHotSwapStorm(t *testing.T) {
	testutil.CheckGoroutines(t)
	reg, err := NewRegistry(thresholdModel(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	src := func() (classifier.Classifier, int64) {
		snap := reg.Snapshot()
		return snap.Model, snap.Version
	}
	b := NewBatcher(src, BatcherConfig{QueueCap: 4096, Workers: 4}, stats)

	const (
		classifiers = 64
		minSwaps    = 10
	)
	total := stressN()
	perWorker := (total + classifiers - 1) / classifiers

	var (
		classified atomic.Int64
		violations atomic.Int64
		rejects    atomic.Int64
		stopSwaps  = make(chan struct{})
		swapsDone  atomic.Int64
	)

	// Swapper: version v+1 always carries threshold v+1, so readers can
	// verify labels against the claimed version alone.
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopSwaps:
				return
			default:
			}
			v := reg.Version()
			if _, err := reg.Swap(thresholdModel(t, float64(v+1))); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			swapsDone.Add(1)
			time.Sleep(200 * time.Microsecond) // spread swaps across the classify window
		}
	}()

	var wg sync.WaitGroup
	wg.Add(classifiers)
	for w := 0; w < classifiers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perWorker; i++ {
				// Query points at half-integers so every version labels
				// them unambiguously: expected = x > threshold(v).
				x := float64(rng.Intn(2*minSwaps)) + 0.5
				vLo := reg.Version()
				res, err := b.Submit(context.Background(), geom.Point{x})
				if err == ErrQueueFull {
					rejects.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				vHi := reg.Version()
				classified.Add(1)
				if res.Version < vLo || res.Version > vHi {
					violations.Add(1)
					t.Errorf("response version %d outside live window [%d,%d]", res.Version, vLo, vHi)
				}
				want := geom.Negative
				if x >= float64(res.Version) {
					want = geom.Positive
				}
				if res.Label != want {
					violations.Add(1)
					t.Errorf("point %g labeled %v by version %d, want %v", x, res.Label, res.Version, want)
				}
			}
		}(w)
	}
	wg.Wait()
	// Keep swapping until the floor is met (it virtually always is
	// already), then stop; bail rather than hang if the swapper died.
	for bail := time.Now().Add(10 * time.Second); swapsDone.Load() < minSwaps && time.Now().Before(bail); {
		time.Sleep(time.Millisecond)
	}
	close(stopSwaps)
	swapWG.Wait()
	b.Close()

	if violations.Load() != 0 {
		t.Fatalf("%d incorrect responses", violations.Load())
	}
	if got := classified.Load(); got < int64(total)-rejects.Load() {
		t.Errorf("classified %d of %d (rejects %d)", got, total, rejects.Load())
	}
	if swapsDone.Load() < minSwaps {
		t.Errorf("only %d swaps completed, want ≥ %d", swapsDone.Load(), minSwaps)
	}
	if reg.Swaps() != swapsDone.Load() {
		t.Errorf("registry counted %d swaps, swapper did %d", reg.Swaps(), swapsDone.Load())
	}
	var snap StatsSnapshot
	stats.snapshotCounters(&snap)
	if snap.BatchPoints != classified.Load() {
		t.Errorf("batcher processed %d points, %d were answered", snap.BatchPoints, classified.Load())
	}
	t.Logf("storm: %d classified, %d swaps, %d rejects, %d batches (mean %.1f)",
		classified.Load(), swapsDone.Load(), rejects.Load(), snap.Batches, snap.MeanBatch)
}

// TestHTTPSoak mirrors the conformance harness's seeded style on the
// HTTP surface: a seeded mixed workload of classifies, client batches,
// hot swaps, stats polls, and malformed requests, with invariant
// checks at the end. SERVE_SOAK_SECONDS extends the default
// short-mode-friendly duration.
func TestHTTPSoak(t *testing.T) {
	testutil.CheckGoroutines(t)
	seconds := 2
	if s := os.Getenv("SERVE_SOAK_SECONDS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			seconds = v
		}
	} else if testing.Short() {
		seconds = 1
	}

	srv, err := NewServer(thresholdModel(t, 1), Config{
		Batch: BatcherConfig{QueueCap: 2048, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	const clients = 16
	var (
		ok200    atomic.Int64
		ok429    atomic.Int64
		bad4xx   atomic.Int64
		swapOK   atomic.Int64
		protocol atomic.Int64 // violations of the response contract
	)
	reg := srv.Registry()

	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) * 7919))
			client := &http.Client{}
			for time.Now().Before(deadline) {
				switch op := rng.Intn(10); {
				case op < 5: // single classify
					x := float64(rng.Intn(40)) + 0.5
					vLo := reg.Version()
					resp, err := client.Post(hs.URL+"/classify", "application/json",
						strings.NewReader(fmt.Sprintf(`{"point":[%g]}`, x)))
					if err != nil {
						protocol.Add(1)
						continue
					}
					var res classifyResponse
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case 200:
						ok200.Add(1)
						if json.Unmarshal(data, &res) != nil {
							protocol.Add(1)
							continue
						}
						vHi := reg.Version()
						if res.Version < vLo || res.Version > vHi {
							protocol.Add(1)
						}
						want := 0
						if x >= float64(res.Version) {
							want = 1
						}
						if res.Label != want {
							protocol.Add(1)
						}
					case 429:
						ok429.Add(1)
					default:
						protocol.Add(1)
					}
				case op < 7: // client batch
					var pts []string
					for i := 0; i < 1+rng.Intn(8); i++ {
						pts = append(pts, fmt.Sprintf("[%g]", float64(rng.Intn(40))+0.5))
					}
					resp, err := client.Post(hs.URL+"/classify/batch", "application/json",
						strings.NewReader(`{"points":[`+strings.Join(pts, ",")+`]}`))
					if err != nil {
						protocol.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == 200 {
						ok200.Add(1)
					} else {
						protocol.Add(1)
					}
				case op < 8: // hot swap, keeping threshold == version
					// The label contract needs the claimed version's
					// threshold to be knowable, so swaps are serialized
					// and always promote threshold v+1 as version v+1.
					swapMu.Lock()
					v := reg.Version()
					var body bytes.Buffer
					classifier.WriteModel(&body, thresholdModel(t, float64(v+1)))
					resp, err := client.Post(hs.URL+"/model", "application/json", &body)
					swapMu.Unlock()
					if err != nil {
						protocol.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == 200 {
						swapOK.Add(1)
					} else {
						protocol.Add(1)
					}
				case op < 9: // stats / healthz poll
					url := hs.URL + "/stats"
					if rng.Intn(2) == 0 {
						url = hs.URL + "/healthz"
					}
					resp, err := client.Get(url)
					if err != nil {
						protocol.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						protocol.Add(1)
					}
				default: // hostile input must 4xx, never 5xx
					bodies := []string{`{`, `{"point":"x"}`, `{"point":[1,2,3]}`, `{"points":[]}`, `null`}
					resp, err := client.Post(hs.URL+"/classify", "application/json",
						strings.NewReader(bodies[rng.Intn(len(bodies))]))
					if err != nil {
						protocol.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode < 400 || resp.StatusCode >= 500 {
						protocol.Add(1)
					} else {
						bad4xx.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	if protocol.Load() != 0 {
		t.Fatalf("%d protocol violations during soak", protocol.Load())
	}
	var snap StatsSnapshot
	getJSON(t, hs.URL+"/stats", &snap)
	if snap.Swaps != swapOK.Load() {
		t.Errorf("stats swaps = %d, clients completed %d", snap.Swaps, swapOK.Load())
	}
	if snap.Rejected != ok429.Load() {
		t.Errorf("stats rejected = %d, clients saw %d", snap.Rejected, ok429.Load())
	}
	if snap.BadRequests < bad4xx.Load() {
		t.Errorf("stats bad_requests = %d < observed %d", snap.BadRequests, bad4xx.Load())
	}
	t.Logf("soak %ds: %d ok, %d rejected, %d bad, %d swaps, final version %d, mean batch %.2f",
		seconds, ok200.Load(), ok429.Load(), bad4xx.Load(), swapOK.Load(), snap.ModelVersion, snap.MeanBatch)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after soak: %v", err)
	}
}

// swapMu serializes soak-test swaps so the version→threshold
// correspondence stays exact while swaps still race classifies.
var swapMu sync.Mutex
