package serve

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
	"testing"
	"time"

	"monoclass/internal/chains"
	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/problem"
	"monoclass/internal/testutil"
)

// newTestServer builds a Server over the 1-D threshold-5 model and
// mounts it under httptest, tearing both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(thresholdModel(t, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return srv, hs
}

// postJSON posts body to url and decodes the JSON response into out,
// returning the status code.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func TestServerClassify(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, hs := newTestServer(t, Config{})
	var res classifyResponse
	if code := postJSON(t, hs.URL+"/classify", `{"point":[7]}`, &res); code != 200 {
		t.Fatalf("status %d", code)
	}
	if res.Label != 1 || res.Version != 1 {
		t.Errorf("classify(7) = %+v, want label 1 version 1", res)
	}
	if code := postJSON(t, hs.URL+"/classify", `{"point":[3]}`, &res); code != 200 {
		t.Fatalf("status %d", code)
	}
	if res.Label != 0 {
		t.Errorf("classify(3) label = %d, want 0", res.Label)
	}
}

func TestServerClassifyBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, hs := newTestServer(t, Config{})
	var res batchResponse
	if code := postJSON(t, hs.URL+"/classify/batch", `{"points":[[1],[5],[9]]}`, &res); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(res.Labels) != 3 || res.Labels[0] != 0 || res.Labels[1] != 1 || res.Labels[2] != 1 {
		t.Errorf("batch labels = %v, want [0 1 1]", res.Labels)
	}
	if res.Version != 1 {
		t.Errorf("batch version = %d", res.Version)
	}
}

func TestServerBadRequests(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, hs := newTestServer(t, Config{MaxClientBatch: 4, Online: &OnlineConfig{}})
	model := `{"format":"monoclass-anchors","version":1,"dim":1,"anchors":[[3]]}`
	learn := `{"deltas":[{"op":"insert","point":[1],"label":1,"weight":1}]}`
	cases := []struct {
		name, path, body string
		wantCode         int
	}{
		{"garbage", "/classify", `{`, 400},
		{"unknown field", "/classify", `{"pt":[1]}`, 400},
		{"wrong dim", "/classify", `{"point":[1,2]}`, 400},
		{"empty point", "/classify", `{"point":[]}`, 400},
		{"empty batch", "/classify/batch", `{"points":[]}`, 400},
		{"empty object batch", "/classify/batch", `{}`, 400},
		{"null batch", "/classify/batch", `{"points":null}`, 400},
		{"dim mismatch inside batch", "/classify/batch", `{"points":[[1],[1,2]]}`, 400},
		{"oversized batch", "/classify/batch", `{"points":[[1],[2],[3],[4],[5]]}`, 413},
		{"model garbage", "/model", `{"format":"nope"}`, 400},
		// A null coordinate is an error at every JSON ingress, not a 0.
		{"null coordinate", "/classify", `{"point":[null]}`, 400},
		{"null coordinate in batch", "/classify/batch", `{"points":[[1],[null]]}`, 400},
		{"null coordinate in learn", "/learn", `{"deltas":[{"op":"insert","point":[null],"label":1,"weight":1}]}`, 400},
		{"null coordinate in model", "/model", `{"format":"monoclass-anchors","version":1,"dim":1,"anchors":[[null]]}`, 400},
		// So is anything but whitespace after the JSON value.
		{"trailing garbage", "/classify", `{"point":[1]}garbage`, 400},
		{"trailing garbage in batch", "/classify/batch", `{"points":[[1]]}garbage`, 400},
		{"second batch object", "/classify/batch", `{"points":[[1]]}{"points":[[0]]}`, 400},
		{"trailing garbage in learn", "/learn", learn + `garbage`, 400},
		{"trailing garbage in model", "/model", model + ` {}`, 400},
	}
	for _, tc := range cases {
		var eresp errorResponse
		if code := postJSON(t, hs.URL+tc.path, tc.body, &eresp); code != tc.wantCode {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.wantCode)
		}
		if eresp.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
	var snap StatsSnapshot
	getJSON(t, hs.URL+"/stats", &snap)
	if snap.BadRequests != int64(len(cases)) {
		t.Errorf("bad_requests = %d, want %d", snap.BadRequests, len(cases))
	}
	if snap.Online.Inserts != 0 || snap.Swaps != 0 {
		t.Errorf("rejected bodies still applied %d inserts and %d swaps", snap.Online.Inserts, snap.Swaps)
	}
	// The trailing-data rows differ from accepted bodies only in their
	// tails.
	for path, body := range map[string]string{"/classify": `{"point":[1]}` + " \n", "/learn": learn, "/model": model} {
		if code := postJSON(t, hs.URL+path, body, nil); code/100 != 2 {
			t.Errorf("POST %s %s: status %d", path, body, code)
		}
	}
	// GET on a POST-only route must 405 under the method-aware mux.
	resp, err := http.Get(hs.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET /classify status %d, want 405", resp.StatusCode)
	}
	_ = srv
}

func TestServerModelRoundTrip(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, hs := newTestServer(t, Config{})

	// GET returns the serving model with its version header.
	resp, err := http.Get(hs.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Model-Version"); got != "1" {
		t.Errorf("X-Model-Version = %q, want 1", got)
	}
	m, err := classifier.ReadModel(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET /model body does not parse: %v", err)
	}
	if m.Dim() != 1 || len(m.Anchors()) != 1 || m.Anchors()[0][0] != 5 {
		t.Errorf("served model = %v", m)
	}

	// POST a new model; classifies must flip over to it.
	var buf bytes.Buffer
	if err := classifier.WriteModel(&buf, thresholdModel(t, 100)); err != nil {
		t.Fatal(err)
	}
	var swap swapResponse
	if code := postJSON(t, hs.URL+"/model", buf.String(), &swap); code != 200 {
		t.Fatalf("swap status %d", code)
	}
	if swap.Version != 2 || swap.Dim != 1 || swap.Anchors != 1 {
		t.Errorf("swap response = %+v", swap)
	}
	var res classifyResponse
	postJSON(t, hs.URL+"/classify", `{"point":[7]}`, &res)
	if res.Label != 0 || res.Version != 2 {
		t.Errorf("after swap classify(7) = %+v, want label 0 version 2", res)
	}
	if srv.Registry().Swaps() != 1 {
		t.Errorf("Swaps = %d", srv.Registry().Swaps())
	}

	// Dimension mismatch → 422, version unchanged.
	buf.Reset()
	classifier.WriteModel(&buf, classifier.MustAnchorSet(2, []geom.Point{{1, 1}}))
	var eresp errorResponse
	if code := postJSON(t, hs.URL+"/model", buf.String(), &eresp); code != 422 {
		t.Fatalf("mismatched swap status %d, want 422", code)
	}
	if srv.Registry().Version() != 2 {
		t.Errorf("failed swap moved version to %d", srv.Registry().Version())
	}
}

func TestServerAuditGateOverHTTP(t *testing.T) {
	testutil.CheckGoroutines(t)
	holdout := geom.WeightedSet{
		{P: geom.Point{0}, Label: geom.Negative, Weight: 1},
		{P: geom.Point{10}, Label: geom.Positive, Weight: 1},
	}
	srv, hs := newTestServer(t, Config{Audit: HoldoutAudit(holdout, 0)})

	var buf bytes.Buffer
	classifier.WriteModel(&buf, thresholdModel(t, 50)) // misclassifies the positive
	var eresp errorResponse
	if code := postJSON(t, hs.URL+"/model", buf.String(), &eresp); code != 422 {
		t.Fatalf("audit-failing swap status %d, want 422", code)
	}
	if !strings.Contains(eresp.Error, "audit gate") {
		t.Errorf("error %q does not mention the audit gate", eresp.Error)
	}
	if srv.Registry().AuditRejects() != 1 {
		t.Errorf("AuditRejects = %d", srv.Registry().AuditRejects())
	}

	buf.Reset()
	classifier.WriteModel(&buf, thresholdModel(t, 5)) // classifies holdout perfectly
	if code := postJSON(t, hs.URL+"/model", buf.String(), nil); code != 200 {
		t.Fatalf("audit-passing swap status %d", code)
	}
}

func TestServerHealthzAndStats(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, hs := newTestServer(t, Config{})
	var health struct {
		Status  string `json:"status"`
		Version int64  `json:"version"`
	}
	if code := getJSON(t, hs.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "ok" || health.Version != 1 {
		t.Errorf("healthz = %+v", health)
	}

	for i := 0; i < 5; i++ {
		postJSON(t, hs.URL+"/classify", fmt.Sprintf(`{"point":[%d]}`, i), nil)
	}
	postJSON(t, hs.URL+"/classify/batch", `{"points":[[1],[2],[3]]}`, nil)

	var snap StatsSnapshot
	if code := getJSON(t, hs.URL+"/stats", &snap); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if snap.Requests != 8 {
		t.Errorf("requests = %d, want 8", snap.Requests)
	}
	if snap.Batches < 2 { // ≥1 micro-batch + 1 client batch
		t.Errorf("batches = %d, want ≥ 2", snap.Batches)
	}
	if snap.BatchPoints != 8 {
		t.Errorf("batch_points = %d, want 8", snap.BatchPoints)
	}
	if snap.ModelVersion != 1 || snap.QueueCap == 0 {
		t.Errorf("snapshot = %+v", snap)
	}
}

// TestServerStatsPrepare: the prepare provenance a server is started
// with reaches /stats "prepare", the network's size included.
func TestServerStatsPrepare(t *testing.T) {
	prep := &problem.PrepareStats{N: 10, Dim: 2, Width: 3, DecomposePath: chains.PathFast2D, Contending: 7, Edges: 19}
	_, hs := newTestServer(t, Config{Prepare: prep})
	var snap struct {
		Prepare map[string]any `json:"prepare"`
	}
	if code := getJSON(t, hs.URL+"/stats", &snap); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if snap.Prepare["contending"] != 7.0 || snap.Prepare["edges"] != 19.0 || snap.Prepare["width"] != 3.0 {
		t.Errorf("/stats prepare = %v, want width 3, contending 7, edges 19", snap.Prepare)
	}
}

// TestServerBackpressure parks the single worker behind a blocking
// snapshot source, fills the one-slot queue, and checks the
// 429 + Retry-After contract on the HTTP surface deterministically.
func TestServerBackpressure(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, err := NewServer(thresholdModel(t, 5), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Replace the server's batcher (tests are in-package) with one whose
	// source parks the worker until released: the first request wedges
	// the worker, the second fills the queue, the third must bounce.
	release := make(chan struct{})
	parked := make(chan struct{})
	var once sync.Once
	reg := srv.Registry()
	parkingSrc := func() (classifier.Classifier, int64) {
		once.Do(func() { close(parked) })
		<-release
		snap := reg.Snapshot()
		return snap.Model, snap.Version
	}
	srv.bat.Close()
	srv.bat = NewBatcher(parkingSrc, BatcherConfig{QueueCap: 1, Workers: 1}, srv.stats)

	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()

	codes := make(chan int, 2)
	send := func() {
		resp, err := http.Post(hs.URL+"/classify", "application/json", strings.NewReader(`{"point":[9]}`))
		if err != nil {
			codes <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go send() // wedges the worker
	<-parked
	go send() // sits in the queue
	deadline := time.Now().Add(5 * time.Second)
	for srv.bat.QueueDepth() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.bat.QueueDepth() != 1 {
		t.Fatal("second request never queued")
	}

	// Queue full: this one must be rejected with 429 + Retry-After: 1.
	resp, err := http.Post(hs.URL+"/classify", "application/json", strings.NewReader(`{"point":[9]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("status %d (body %s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("429 with Retry-After %q, want \"1\"", ra)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != 200 {
			t.Errorf("parked request finished with %d, want 200", code)
		}
	}
	var snap StatsSnapshot
	getJSON(t, hs.URL+"/stats", &snap)
	if snap.Rejected != 1 {
		t.Errorf("stats rejected = %d, want 1", snap.Rejected)
	}
	if snap.Requests != 2 {
		t.Errorf("stats requests = %d, want 2", snap.Requests)
	}
}

// TestServerStartShutdown exercises the real listener path: Start on
// an ephemeral port, serve traffic, shut down gracefully, and verify
// no goroutines outlive Shutdown.
func TestServerStartShutdown(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, err := NewServer(thresholdModel(t, 5), Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("double Start accepted")
	}
	url := "http://" + addr.String()
	var res classifyResponse
	if code := postJSON(t, url+"/classify", `{"point":[9]}`, &res); code != 200 || res.Label != 1 {
		t.Fatalf("classify over real listener: code %d res %+v", code, res)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The listener must be gone.
	if _, err := http.Post(url+"/classify", "application/json", strings.NewReader(`{"point":[9]}`)); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
	// Shutdown again is a no-op.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}
