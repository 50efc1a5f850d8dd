package shard

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/serve"
	"monoclass/internal/testutil"
)

// thresholdModel is the 1-D threshold-at-tau classifier used across
// the serve and shard test suites: version-v models carry tau = v, so
// a label is checkable from the version alone.
func thresholdModel(t testing.TB, tau float64) *classifier.AnchorSet {
	t.Helper()
	h, err := classifier.NewAnchorSet(1, []geom.Point{{tau}})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// testFleet spins n replica servers behind httptest and returns their
// base URLs plus a cleanup-registered teardown.
func testFleet(t *testing.T, n int, model *classifier.AnchorSet, cfg serve.Config) ([]string, []*serve.Server) {
	t.Helper()
	var urls []string
	var srvs []*serve.Server
	for i := 0; i < n; i++ {
		srv, err := serve.NewServer(model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		t.Cleanup(func() { srv.Close() })
		srvs = append(srvs, srv)
		urls = append(urls, hs.URL)
	}
	return urls, srvs
}

func TestRingOrderCoversAllReplicas(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		ring, err := NewRing(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]int, 0, n)
		for trial := 0; trial < 50; trial++ {
			pt := geom.Point{float64(trial), float64(trial % 7)}
			order := ring.Order(buf, pt)
			if len(order) != n {
				t.Fatalf("n=%d: order has %d entries", n, len(order))
			}
			seen := make(map[int]bool, n)
			for _, idx := range order {
				if idx < 0 || idx >= n || seen[idx] {
					t.Fatalf("n=%d: bad order %v", n, order)
				}
				seen[idx] = true
			}
			// Deterministic: same point, same order.
			again := ring.Order(make([]int, 0, n), pt)
			for i := range order {
				if order[i] != again[i] {
					t.Fatalf("n=%d: order not deterministic: %v vs %v", n, order, again)
				}
			}
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	const n = 4
	ring, err := NewRing(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	buf := make([]int, 0, n)
	const trials = 4000
	for i := 0; i < trials; i++ {
		pt := geom.Point{float64(i) * 0.37, float64(i%13) - 6}
		counts[ring.Order(buf, pt)[0]]++
	}
	for i, c := range counts {
		if c < trials/n/4 {
			t.Errorf("replica %d got %d of %d first-choice placements (starved)", i, c, trials)
		}
	}
	t.Logf("first-choice spread: %v", counts)
}

func TestRingStability(t *testing.T) {
	// Growing the fleet by one must not move keys between the
	// surviving replicas' positions: a key keeps its old first choice
	// unless the new replica took it.
	r3, _ := NewRing(3, 0)
	r4, _ := NewRing(4, 0)
	moved, kept := 0, 0
	buf := make([]int, 0, 4)
	for i := 0; i < 2000; i++ {
		pt := geom.Point{float64(i), float64(i % 17)}
		was := r3.Order(buf, pt)[0]
		now := r4.Order(make([]int, 0, 4), pt)[0]
		switch {
		case now == was:
			kept++
		case now == 3:
			moved++ // claimed by the new replica — expected for ~1/4
		default:
			t.Fatalf("key %d moved between surviving replicas: %d → %d", i, was, now)
		}
	}
	if moved == 0 || moved > kept {
		t.Errorf("ring stability off: %d moved to the new replica, %d kept", moved, kept)
	}
}

func TestRouterAggregateStatsExact(t *testing.T) {
	testutil.CheckGoroutines(t)
	urls, _ := testFleet(t, 3, thresholdModel(t, 1), serve.Config{
		Batch: serve.BatcherConfig{QueueCap: 1024, Workers: 2},
	})
	router, err := NewRouter(urls, RouterConfig{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rs := httptest.NewServer(router.Handler())
	defer rs.Close()

	const (
		singles   = 120
		batches   = 30
		batchSize = 16
	)
	client := rs.Client()
	for i := 0; i < singles; i++ {
		resp, err := client.Post(rs.URL+"/classify", "application/json",
			strings.NewReader(fmt.Sprintf(`{"point":[%g]}`, float64(i)+0.5)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("classify %d: status %d", i, resp.StatusCode)
		}
	}
	for i := 0; i < batches; i++ {
		var pts []string
		for j := 0; j < batchSize; j++ {
			pts = append(pts, fmt.Sprintf("[%g]", float64(i*batchSize+j)+0.25))
		}
		resp, err := client.Post(rs.URL+"/classify/batch", "application/json",
			strings.NewReader(`{"points":[`+strings.Join(pts, ",")+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
	}

	var agg AggregateStats
	if code := getJSON(t, rs.URL+"/stats", &agg); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	wantPoints := int64(singles + batches*batchSize)
	if agg.Totals.Requests != wantPoints {
		t.Errorf("aggregate requests = %d, want exactly %d", agg.Totals.Requests, wantPoints)
	}
	if agg.Totals.BatchPoints != wantPoints {
		t.Errorf("aggregate batch_points = %d, want exactly %d", agg.Totals.BatchPoints, wantPoints)
	}
	if agg.Totals.Rejected != 0 || agg.Totals.BadRequests != 0 {
		t.Errorf("unexpected rejects/bad: %+v", agg.Totals)
	}
	var routedSum, perReplica int64
	for i, row := range agg.Replicas {
		if row.Stats == nil {
			t.Fatalf("replica %d: no stats (%s)", i, row.Error)
		}
		var histSum int64
		for _, n := range row.Stats.BatchSizeHist {
			histSum += n
		}
		if histSum != row.Stats.Batches {
			t.Errorf("replica %d: Σhist = %d, batches = %d", i, histSum, row.Stats.Batches)
		}
		perReplica += row.Stats.Requests
		routedSum += row.Routed
	}
	if perReplica != wantPoints {
		t.Errorf("per-replica requests sum to %d, want %d", perReplica, wantPoints)
	}
	if wantCalls := int64(singles + batches); routedSum != wantCalls {
		t.Errorf("routed counters sum to %d, want %d HTTP calls", routedSum, wantCalls)
	}
	if agg.Router.Retries != 0 || agg.Router.Failed != 0 {
		t.Errorf("healthy fleet saw retries=%d failed=%d", agg.Router.Retries, agg.Router.Failed)
	}
}

// TestRouterPassThrough checks the proxied error surface matches
// direct serving: bad bodies 400, oversized batches 413, wrong
// dimension 400 — and a valid model promotion through the router
// reaches the primary.
func TestRouterPassThrough(t *testing.T) {
	testutil.CheckGoroutines(t)
	urls, srvs := testFleet(t, 2, thresholdModel(t, 1), serve.Config{
		Batch:          serve.BatcherConfig{QueueCap: 64},
		MaxClientBatch: 8,
	})
	router, err := NewRouter(urls, RouterConfig{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rs := httptest.NewServer(router.Handler())
	defer rs.Close()
	client := rs.Client()

	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/classify", `{`, 400},
		{"/classify", `{"point":[1,2]}`, 400}, // dim mismatch
		{"/classify", `{"point":[5.5]}`, 200},
		{"/classify/batch", `{"points":[[1],[2],[3],[4],[5],[6],[7],[8],[9]]}`, 413},
		{"/classify/batch", `{"points":[[1],[2]]}`, 200},
	} {
		resp, err := client.Post(rs.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s %q: status %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}

	// Promotion through the router lands on the primary, not replica 1.
	var buf strings.Builder
	if err := classifier.WriteModel(&buf, thresholdModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(rs.URL+"/model", "application/json", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	if v := srvs[0].Registry().Version(); v != 2 {
		t.Errorf("primary version %d after promotion, want 2", v)
	}
	if v := srvs[1].Registry().Version(); v != 1 {
		t.Errorf("replica version %d, want 1 (no syncer attached)", v)
	}

	// GET /model proxies the primary's body and version header.
	mresp, err := client.Get(rs.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if got := mresp.Header.Get("X-Model-Version"); got != "2" {
		t.Errorf("GET /model X-Model-Version = %q, want 2", got)
	}
	if _, err := classifier.ReadModel(mresp.Body); err != nil {
		t.Errorf("GET /model body does not round-trip: %v", err)
	}
}

// TestRouterHealthzAggregate exercises the fleet-health endpoint
// degrading and recovering as replicas come and go.
func TestRouterHealthzAggregate(t *testing.T) {
	testutil.CheckGoroutines(t)
	urls, _ := testFleet(t, 2, thresholdModel(t, 1), serve.Config{
		Batch: serve.BatcherConfig{QueueCap: 64},
	})
	// Third endpoint points nowhere: unhealthy after the first poll.
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	router, err := NewRouter(append(urls, deadURL), RouterConfig{HealthInterval: -1, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	router.CheckHealth()
	rs := httptest.NewServer(router.Handler())
	defer rs.Close()

	var hz struct {
		Status   string          `json:"status"`
		Healthy  int             `json:"healthy"`
		Replicas []ReplicaHealth `json:"replicas"`
	}
	if code := getJSON(t, rs.URL+"/healthz", &hz); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if hz.Status != "degraded" || hz.Healthy != 2 {
		t.Errorf("healthz = %+v, want degraded with 2 healthy", hz)
	}
	if len(hz.Replicas) != 3 || hz.Replicas[2].Healthy {
		t.Errorf("replica rows wrong: %+v", hz.Replicas)
	}
	if !hz.Replicas[0].Primary || hz.Replicas[0].Version != 1 {
		t.Errorf("primary row wrong: %+v", hz.Replicas[0])
	}
}
