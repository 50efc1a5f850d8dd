package shard

// Fault-injection coverage for the replication loop and the router's
// health machinery: flaky replicas that 503, delay, or drop /model
// pushes must re-converge once the fault clears, and the router must
// route around an unhealthy replica without failing in-flight
// requests.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/serve"
	"monoclass/internal/testutil"
)

// faultProxy fronts one replica and injects faults on demand: refuse
// (503 everything), failPosts (503 the next N POST /model pushes),
// delay (sleep before forwarding). The zero state forwards verbatim.
type faultProxy struct {
	backend string
	client  *http.Client

	refuse    atomic.Bool
	failPosts atomic.Int64
	delayNs   atomic.Int64
}

func newFaultProxy(t *testing.T, backend string) (*faultProxy, string) {
	t.Helper()
	p := &faultProxy{backend: backend, client: &http.Client{Timeout: 5 * time.Second}}
	hs := httptest.NewServer(p)
	t.Cleanup(hs.Close)
	return p, hs.URL
}

func (p *faultProxy) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if p.refuse.Load() {
		http.Error(w, "injected outage", http.StatusServiceUnavailable)
		return
	}
	if req.Method == http.MethodPost && req.URL.Path == "/model" {
		if n := p.failPosts.Load(); n > 0 && p.failPosts.CompareAndSwap(n, n-1) {
			http.Error(w, "injected push failure", http.StatusServiceUnavailable)
			return
		}
	}
	if d := p.delayNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	freq, err := http.NewRequestWithContext(req.Context(), req.Method, p.backend+req.URL.Path, bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	freq.Header = req.Header.Clone()
	resp, err := p.client.Do(freq)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
}

// promote swaps a new threshold model directly on the primary and
// returns the new primary version.
func promote(t *testing.T, primary *serve.Server, tau float64) int64 {
	t.Helper()
	ver, err := primary.Registry().Swap(thresholdModel(t, tau))
	if err != nil {
		t.Fatalf("promote tau=%g: %v", tau, err)
	}
	return ver
}

// TestSyncerReconvergesThroughPushFailures drops the first pushes to a
// flaky replica (503) and asserts the loop retries until the replica
// acknowledges, counting the failures.
func TestSyncerReconvergesThroughPushFailures(t *testing.T) {
	testutil.CheckGoroutines(t)
	urls, srvs := testFleet(t, 2, thresholdModel(t, 1), serve.Config{
		Batch: serve.BatcherConfig{QueueCap: 64},
	})
	proxy, proxyURL := newFaultProxy(t, urls[1])
	proxy.failPosts.Store(3)

	var syncErrs atomic.Int64
	syncer := NewSyncer(urls[0], []string{proxyURL}, SyncConfig{
		Interval:    2 * time.Millisecond,
		SeedVersion: 1,
		Client:      fastClient(),
		OnError:     func(string, error) { syncErrs.Add(1) },
	})
	syncer.Start()
	defer syncer.Stop()

	want := promote(t, srvs[0], 2)
	waitConverged(t, syncer, []string{proxyURL}, want, 10*time.Second)

	if _, _, failures := syncer.Stats(); failures != 3 {
		t.Errorf("failure counter = %d, want exactly the 3 injected", failures)
	}
	if syncErrs.Load() != 3 {
		t.Errorf("OnError fired %d times, want 3", syncErrs.Load())
	}
	// The replica really serves the new model, mapped in the vector.
	var hz struct {
		Version int64 `json:"version"`
	}
	if code := getJSON(t, urls[1]+"/healthz", &hz); code != 200 {
		t.Fatalf("replica healthz status %d", code)
	}
	if p, ok := syncer.Resolve(proxyURL, hz.Version); !ok || p != want {
		t.Errorf("replica local version %d resolves to (%d,%v), want (%d,true)", hz.Version, p, ok, want)
	}
}

// TestSyncerReconvergesAfterOutage takes the replica fully offline
// across several promotions, then restores it: the replica must catch
// up to the latest version with a single push (snapshot replication,
// not a version-by-version replay).
func TestSyncerReconvergesAfterOutage(t *testing.T) {
	testutil.CheckGoroutines(t)
	urls, srvs := testFleet(t, 2, thresholdModel(t, 1), serve.Config{
		Batch: serve.BatcherConfig{QueueCap: 64},
	})
	proxy, proxyURL := newFaultProxy(t, urls[1])
	syncer := NewSyncer(urls[0], []string{proxyURL}, SyncConfig{
		Interval:    2 * time.Millisecond,
		SeedVersion: 1,
		Client:      fastClient(),
	})
	syncer.Start()
	defer syncer.Stop()

	proxy.refuse.Store(true)
	var want int64
	for tau := 2; tau <= 5; tau++ {
		want = promote(t, srvs[0], float64(tau))
	}
	// Give the loop a few rounds against the dead replica.
	time.Sleep(20 * time.Millisecond)
	if got := syncer.Acked(proxyURL); got != 1 {
		t.Fatalf("replica acked %d during outage, want 1", got)
	}
	proxy.refuse.Store(false)
	waitConverged(t, syncer, []string{proxyURL}, want, 10*time.Second)

	// Snapshot semantics: the replica's registry moved forward once for
	// the catch-up (seed local 1 → catch-up local 2), skipping the
	// intermediate versions it never saw.
	if v := srvs[1].Registry().Version(); v != 2 {
		t.Errorf("replica local version %d after catch-up, want 2 (one push, not a replay)", v)
	}
	if p, ok := syncer.Resolve(proxyURL, 2); !ok || p != want {
		t.Errorf("local version 2 resolves to (%d,%v), want (%d,true)", p, ok, want)
	}
}

// TestSyncerDelayedPushStaysMonotone injects a long delay into one
// push while newer promotions land: per-replica serialization means
// the slow push completes first and the newer version follows, so the
// replica's acked version never regresses.
func TestSyncerDelayedPushStaysMonotone(t *testing.T) {
	testutil.CheckGoroutines(t)
	urls, srvs := testFleet(t, 2, thresholdModel(t, 1), serve.Config{
		Batch: serve.BatcherConfig{QueueCap: 64},
	})
	proxy, proxyURL := newFaultProxy(t, urls[1])
	proxy.delayNs.Store(int64(10 * time.Millisecond))
	syncer := NewSyncer(urls[0], []string{proxyURL}, SyncConfig{
		Interval:    time.Millisecond,
		SeedVersion: 1,
		Client:      fastClient(),
	})
	syncer.Start()
	defer syncer.Stop()

	// Sample acked continuously while promotions race the delayed pushes.
	stop := make(chan struct{})
	var monoWG sync.WaitGroup
	var regressions atomic.Int64
	monoWG.Add(1)
	go func() {
		defer monoWG.Done()
		last := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := syncer.Acked(proxyURL)
			if a < last {
				regressions.Add(1)
			}
			last = a
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var want int64
	for tau := 2; tau <= 8; tau++ {
		want = promote(t, srvs[0], float64(tau))
		time.Sleep(3 * time.Millisecond)
	}
	waitConverged(t, syncer, []string{proxyURL}, want, 10*time.Second)
	close(stop)
	monoWG.Wait()
	if n := regressions.Load(); n != 0 {
		t.Errorf("acked version regressed %d times under delayed pushes", n)
	}
}

// TestRouterRoutesAroundOutage drives classify load while one replica
// goes down mid-flight: no request may fail (the router retries onto
// the surviving replicas), health polls must mark the replica down and
// back up, and traffic must return after recovery.
func TestRouterRoutesAroundOutage(t *testing.T) {
	testutil.CheckGoroutines(t)
	urls, _ := testFleet(t, 2, thresholdModel(t, 1), serve.Config{
		Batch: serve.BatcherConfig{QueueCap: 1024},
	})
	proxy, proxyURL := newFaultProxy(t, urls[1])
	router, err := NewRouter([]string{urls[0], proxyURL}, RouterConfig{
		HealthInterval: -1, // test drives CheckHealth explicitly
		Client:         fastClient(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	hs := httptest.NewServer(router.Handler())
	defer hs.Close()
	client := hs.Client()

	classifyOK := func(phase string, lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			resp, err := client.Post(hs.URL+"/classify", "application/json",
				strings.NewReader(fmt.Sprintf(`{"point":[%g]}`, float64(i)+0.5)))
			if err != nil {
				t.Fatalf("%s: classify %d: %v", phase, i, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("%s: classify %d: status %d", phase, i, resp.StatusCode)
			}
		}
	}

	classifyOK("healthy fleet", 0, 40)
	if !router.Healthy(1) {
		t.Fatal("replica 1 marked unhealthy before the outage")
	}

	// Outage: replica 1 refuses everything. In-flight and subsequent
	// requests must still all succeed via replica 0.
	proxy.refuse.Store(true)
	classifyOK("during outage", 40, 80)
	router.CheckHealth()
	if router.Healthy(1) {
		t.Error("health poll did not mark the refusing replica down")
	}
	classifyOK("marked down", 80, 120)

	// Recovery: poll flips it back and it serves again.
	proxy.refuse.Store(false)
	router.CheckHealth()
	if !router.Healthy(1) {
		t.Error("health poll did not mark the recovered replica up")
	}
	before := router.AggregateStats(context.Background()).Router.Routed[1]
	classifyOK("recovered", 120, 200)
	agg := router.AggregateStats(context.Background())
	if agg.Router.Routed[1] <= before {
		t.Error("recovered replica received no traffic")
	}
	if agg.Router.Failed != 0 {
		t.Errorf("router failed %d requests across the outage, want 0", agg.Router.Failed)
	}
	if agg.Router.Retries == 0 {
		t.Error("router recorded no retries despite the outage")
	}
	if agg.Router.HealthDns != 1 || agg.Router.HealthUps != 1 {
		t.Errorf("health transitions ups=%d downs=%d, want 1/1", agg.Router.HealthUps, agg.Router.HealthDns)
	}
	if agg.Totals.Requests != 200 {
		t.Errorf("aggregate requests = %d, want exactly 200 (every request served once)", agg.Totals.Requests)
	}
}

// TestRouterPrimaryDownFailsControlPlane: with the primary offline the
// data plane survives on replicas but promotions fail loudly — the
// control plane never silently reroutes to a non-primary.
func TestRouterPrimaryDownFailsControlPlane(t *testing.T) {
	testutil.CheckGoroutines(t)
	urls, _ := testFleet(t, 2, thresholdModel(t, 1), serve.Config{
		Batch: serve.BatcherConfig{QueueCap: 64},
	})
	proxy, proxyURL := newFaultProxy(t, urls[0])
	router, err := NewRouter([]string{proxyURL, urls[1]}, RouterConfig{
		HealthInterval: -1,
		Client:         fastClient(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	hs := httptest.NewServer(router.Handler())
	defer hs.Close()
	client := hs.Client()

	proxy.refuse.Store(true)
	// Data plane: still fine.
	resp, err := client.Post(hs.URL+"/classify", "application/json", strings.NewReader(`{"point":[0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("classify with primary down: status %d", resp.StatusCode)
	}
	// Control plane: promotion must fail, not land elsewhere.
	var buf strings.Builder
	if err := classifier.WriteModel(&buf, thresholdModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	presp, err := client.Post(hs.URL+"/model", "application/json", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusServiceUnavailable && presp.StatusCode != http.StatusBadGateway {
		t.Fatalf("promotion with primary down: status %d, want 502/503", presp.StatusCode)
	}
}

// TestSyncerUnseeded covers SeedVersion 0: the first round pushes
// unconditionally and the replica's pre-replication local version 1
// stays unmapped (Resolve reports it as unknown).
func TestSyncerUnseeded(t *testing.T) {
	testutil.CheckGoroutines(t)
	urls, _ := testFleet(t, 2, thresholdModel(t, 1), serve.Config{
		Batch: serve.BatcherConfig{QueueCap: 64},
	})
	syncer := NewSyncer(urls[0], []string{urls[1]}, SyncConfig{Client: fastClient()})
	if err := syncer.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer syncer.Stop()
	if got := syncer.Acked(urls[1]); got != 1 {
		t.Fatalf("acked = %d after unseeded round, want 1", got)
	}
	if _, ok := syncer.Resolve(urls[1], 1); ok {
		t.Error("pre-replication local version 1 resolved, want unmapped")
	}
	if p, ok := syncer.Resolve(urls[1], 2); !ok || p != 1 {
		t.Errorf("pushed local version 2 resolves to (%d,%v), want (1,true)", p, ok)
	}
	vec := syncer.Vector()
	if len(vec) != 1 || vec[0].Acked != 1 || vec[0].Local[2] != 1 {
		b, _ := json.Marshal(vec)
		t.Errorf("vector = %s, want one entry acked 1 with local 2→1", b)
	}
}
