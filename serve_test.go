package monoclass_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"monoclass"
	"monoclass/internal/testutil"
)

// TestServeWrappers drives the public serving API end to end: train on
// Figure 1, serve over a real listener via Serve, classify through
// HTTP, hot-swap through the registry, and shut down via context
// cancellation with no goroutine leaks.
func TestServeWrappers(t *testing.T) {
	testutil.CheckGoroutines(t)
	sol, err := monoclass.OptimalPassive(monoclass.Figure1Weighted())
	if err != nil {
		t.Fatal(err)
	}

	srv, err := monoclass.NewServer(sol.Classifier, monoclass.ServeConfig{
		Audit: monoclass.SpotAudit(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + addr.String()

	resp, err := http.Post(url+"/classify", "application/json", strings.NewReader(`{"point":[20,20]}`))
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Label   int   `json:"label"`
		Version int64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Label != 1 || res.Version != 1 {
		t.Errorf("classify(20,20) = %+v, want label 1 version 1", res)
	}

	// Hot-swap via the typed registry: the audit gate (SpotAudit) must
	// pass any real AnchorSet, and the served version must advance.
	next, err := monoclass.NewAnchorSet(2, []monoclass.Point{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Swap(next); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(url+"/classify", "application/json", strings.NewReader(`{"point":[1,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if res.Label != 1 || res.Version != 2 {
		t.Errorf("after swap classify(1,1) = %+v, want label 1 version 2", res)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeBlocksUntilCancelled: the Serve convenience must start,
// announce a usable address, and exit cleanly on context cancel.
func TestServeBlocksUntilCancelled(t *testing.T) {
	testutil.CheckGoroutines(t)
	h, err := monoclass.NewAnchorSet(1, []monoclass.Point{{5}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	announced := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- monoclass.Serve(ctx, "127.0.0.1:0", h, monoclass.ServeConfig{}, func(addr string) {
			announced <- addr
		})
	}()
	var addr string
	select {
	case addr = <-announced:
	case err := <-done:
		t.Fatalf("Serve exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never announced")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not exit after cancel")
	}
}
