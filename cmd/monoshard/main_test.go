package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"monoclass"
)

var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "monoshard-cli")
	if err != nil {
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binary = filepath.Join(dir, "monoshard")
	build := exec.Command("go", "build", "-o", binary, ".")
	if out, err := build.CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// startFleet runs n in-process replica servers and returns their base
// URLs (replica 0 is the primary).
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	sol, err := monoclass.OptimalPassive(monoclass.Figure1Weighted())
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, n)
	for i := range urls {
		srv, err := monoclass.NewServer(sol.Classifier, monoclass.ServeConfig{
			Batch: monoclass.BatcherConfig{QueueCap: 256},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = "http://" + addr.String()
	}
	return urls
}

// startRouter launches the binary over the fleet and returns the
// router's base URL plus a stopper asserting clean shutdown.
func startRouter(t *testing.T, fleet []string, extra ...string) (string, func()) {
	t.Helper()
	args := append([]string{
		"-fleet", strings.Join(fleet, ","),
		"-addr", "127.0.0.1:0",
		"-sync-interval", "5ms",
		"-health-interval", "20ms",
	}, extra...)
	cmd := exec.Command(binary, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	bannerCh := make(chan string, 1)
	go func() {
		if sc.Scan() {
			bannerCh <- sc.Text()
		}
		io.Copy(io.Discard, stdout)
	}()
	var banner string
	select {
	case banner = <-bannerCh:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("router banner never appeared")
	}
	fields := strings.Fields(banner)
	base := "http://" + fields[len(fields)-1]
	return base, func() {
		cmd.Process.Signal(syscall.SIGINT)
		if err := cmd.Wait(); err != nil {
			t.Errorf("router did not exit cleanly: %v", err)
		}
	}
}

func TestRouterServesFleet(t *testing.T) {
	fleet := startFleet(t, 3)
	base, stop := startRouter(t, fleet)
	defer stop()

	// Classify through the router: Figure 1's model must answer.
	resp, err := http.Post(base+"/classify", "application/json",
		strings.NewReader(`{"point":[2.5,2.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("classify: status %d", resp.StatusCode)
	}
	var res struct {
		Label   int   `json:"label"`
		Version int64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Version < 1 {
		t.Errorf("classify version %d", res.Version)
	}

	// Aggregate health reports the whole fleet.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hz struct {
		Status   string `json:"status"`
		Healthy  int    `json:"healthy"`
		Replicas []any  `json:"replicas"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Healthy != 3 || len(hz.Replicas) != 3 {
		t.Errorf("healthz = %+v, want ok over 3 replicas", hz)
	}
}

func TestRouterReplicatesPromotion(t *testing.T) {
	fleet := startFleet(t, 2)
	base, stop := startRouter(t, fleet)
	defer stop()

	// Promote a replacement model through the router.
	sol, err := monoclass.OptimalPassive(monoclass.Figure1Weighted())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := monoclass.SaveModel(&buf, sol.Classifier); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/model", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}

	// The non-primary replica must converge to an acked vector entry.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sresp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var agg struct {
			Sync []struct {
				Endpoint string `json:"endpoint"`
				Acked    int64  `json:"acked"`
			} `json:"sync"`
		}
		err = json.NewDecoder(sresp.Body).Decode(&agg)
		sresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(agg.Sync) == 1 && agg.Sync[0].Acked >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never acked the promotion: %+v", agg.Sync)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-fleet", "not-a-url"},
		{"-fleet", "http://a:1,http://b:2", "-primary", "5"},
	} {
		cmd := exec.Command(binary, args...)
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Errorf("args %v: accepted, want failure (output %q)", args, out)
		}
	}
}
