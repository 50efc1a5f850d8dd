package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/serve"
	"monoclass/internal/testutil"
)

// TestClusterEndToEnd drives the packaged scale-out unit the way
// cmd/monoserve -replicas does: real listeners on loopback, classify
// and promote through the router's public listener, replication
// converging behind it.
func TestClusterEndToEnd(t *testing.T) {
	testutil.CheckGoroutines(t)
	c, err := NewCluster(thresholdModel(t, 1), ClusterConfig{
		Replicas:     3,
		Serve:        serve.Config{Batch: serve.BatcherConfig{QueueCap: 256}},
		SyncInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	client := &http.Client{Timeout: 5 * time.Second}

	classify := func(x float64) (int64, bool) {
		t.Helper()
		resp, err := client.Post(base+"/classify", "application/json",
			strings.NewReader(fmt.Sprintf(`{"point":[%g]}`, x)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("classify(%g): status %d", x, resp.StatusCode)
		}
		var res struct {
			Label   int   `json:"label"`
			Version int64 `json:"version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res.Version, res.Label == 1
	}

	if _, pos := classify(5.5); !pos {
		t.Error("5.5 not positive under tau=1")
	}

	// Promote tau=10 through the router; the fleet must converge and
	// every subsequent classify must reflect it once acked everywhere.
	var buf strings.Builder
	if err := classifier.WriteModel(&buf, thresholdModel(t, 10)); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/model", "application/json", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	waitConverged(t, c.Syncer(), c.Addrs()[1:], 2, 10*time.Second)

	for _, x := range []float64{0.5, 3.5, 9.5, 10.5, 42.5} {
		_, pos := classify(x)
		if want := x >= 10; pos != want {
			t.Errorf("classify(%g) positive=%v after promotion to tau=10, want %v", x, pos, want)
		}
	}

	// Aggregate health: all replicas up, vector converged in /stats.
	var hz struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy"`
	}
	if code := getJSON(t, base+"/healthz", &hz); code != 200 || hz.Status != "ok" || hz.Healthy != 3 {
		t.Errorf("healthz = %+v (code %d), want ok/3", hz, code)
	}
	var agg AggregateStats
	if code := getJSON(t, base+"/stats", &agg); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if len(agg.Sync) != 2 {
		t.Fatalf("vector has %d entries, want 2", len(agg.Sync))
	}
	for _, rs := range agg.Sync {
		if rs.Acked != 2 {
			t.Errorf("replica %s acked %d, want 2", rs.Endpoint, rs.Acked)
		}
	}
	if agg.Totals.Requests != 6 {
		t.Errorf("aggregate requests = %d, want exactly 6", agg.Totals.Requests)
	}
}
