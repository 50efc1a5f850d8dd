package conformance

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/serve"
)

// TestCheckShardRoutedOnWorkloads runs the routed-vs-direct check
// standalone over a few generated instances, including the empty and
// special-coordinate families the generator rotates through.
func TestCheckShardRoutedOnWorkloads(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		in := GenerateWorkload(0xd15c0, trial, false)
		if err := Safe(CheckShardRouted, in); err != nil {
			t.Errorf("trial %d (%s): %v", trial, in.Family, err)
		}
	}
}

// TestShardCompareDetectsDivergence points the comparator at two
// fleets serving different models: it must flag the label mismatch
// (mutation-style negative control for the differential).
func TestShardCompareDetectsDivergence(t *testing.T) {
	mkServer := func(tau float64) string {
		model, err := classifier.NewAnchorSet(1, []geom.Point{{tau}})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(model, serve.Config{
			Batch: serve.BatcherConfig{QueueCap: 64, Workers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		return hs.URL
	}
	low, high := mkServer(1), mkServer(10)
	client := &http.Client{Timeout: 5 * time.Second}
	// Point 5.5 is positive under tau=1 and negative under tau=10.
	err := shardCompare(client, low, high, []geom.Point{{5.5}})
	if err == nil {
		t.Fatal("comparator accepted fleets serving different models")
	}
	if !strings.Contains(err.Error(), "routed") {
		t.Errorf("divergence message %q does not describe the routed/direct split", err)
	}
}
