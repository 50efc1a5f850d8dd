package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"monoclass"
)

var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "monoserve-cli")
	if err != nil {
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binary = filepath.Join(dir, "monoserve")
	build := exec.Command("go", "build", "-o", binary, ".")
	if out, err := build.CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// writeModel trains on Figure 1 and saves the model JSON.
func writeModel(t *testing.T) string {
	t.Helper()
	sol, err := monoclass.OptimalPassive(monoclass.Figure1Weighted())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := monoclass.SaveModel(f, sol.Classifier); err != nil {
		t.Fatal(err)
	}
	return path
}

// figureCSV writes the Figure 1 fixture to a temp CSV.
func figureCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f1.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := monoclass.WriteCSV(f, monoclass.Figure1Weighted()); err != nil {
		t.Fatal(err)
	}
	return path
}

// startServer launches the binary on an ephemeral port and returns the
// base URL plus a stopper that interrupts it and asserts clean exit.
func startServer(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	cmd := exec.Command(binary, append(args, "-addr", "127.0.0.1:0")...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The "serving ... on ADDR" banner carries the bound address as its
	// last token; with -train a training summary line precedes it.
	sc := bufio.NewScanner(stdout)
	bannerCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if strings.Contains(sc.Text(), "serving") {
				bannerCh <- sc.Text()
				break
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	var banner string
	select {
	case banner = <-bannerCh:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("server never announced its address")
	}
	fields := strings.Fields(banner)
	url := "http://" + fields[len(fields)-1]

	return url, func() {
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("server exited uncleanly: %v", err)
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatal("server did not exit on SIGINT")
		}
	}
}

func TestServeClassifySwapShutdown(t *testing.T) {
	url, stop := startServer(t, "-model", writeModel(t), "-spot-audit")
	defer stop()

	// Figure 1's optimum classifies (20,20) positive, (0,0) negative.
	var res struct {
		Label   int   `json:"label"`
		Version int64 `json:"version"`
	}
	for _, tc := range []struct {
		body string
		want int
	}{{`{"point":[20,20]}`, 1}, {`{"point":[0,0]}`, 0}} {
		resp, err := http.Post(url+"/classify", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if res.Label != tc.want || res.Version != 1 {
			t.Errorf("%s → %+v, want label %d version 1", tc.body, res, tc.want)
		}
	}

	// Hot-swap to const-positive and observe the flip.
	cp, _ := monoclass.NewAnchorSet(2, []monoclass.Point{{-1e18, -1e18}})
	var buf bytes.Buffer
	if err := monoclass.SaveModel(&buf, cp); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/model", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	swapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("swap status %d: %s", resp.StatusCode, swapBody)
	}
	resp, err = http.Post(url+"/classify", "application/json", strings.NewReader(`{"point":[0,0]}`))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if res.Label != 1 || res.Version != 2 {
		t.Errorf("after swap (0,0) → %+v, want label 1 version 2", res)
	}

	// Stats reflect the traffic.
	resp, err = http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Requests int64 `json:"requests"`
		Swaps    int64 `json:"swaps"`
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.Requests != 3 || stats.Swaps != 1 {
		t.Errorf("stats = %+v, want 3 requests 1 swap", stats)
	}
}

// TestServeTrainSmoke trains the initial model from a CSV, classifies
// one point over HTTP, and shuts down cleanly on SIGINT.
func TestServeTrainSmoke(t *testing.T) {
	url, stop := startServer(t, "-train", figureCSV(t))
	defer stop()
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
}

func TestServeHoldoutGate(t *testing.T) {
	// Holdout = Figure 1 with its optimum (104); a budget of 104 lets
	// equally-good models in but rejects the constant classifiers.
	url, stop := startServer(t, "-model", writeModel(t), "-holdout", figureCSV(t), "-max-werr", "104")
	defer stop()

	cp, _ := monoclass.NewAnchorSet(2, []monoclass.Point{{-1e18, -1e18}})
	var buf bytes.Buffer
	monoclass.SaveModel(&buf, cp)
	resp, err := http.Post(url+"/model", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 422 {
		t.Fatalf("const-positive swap status %d (%s), want 422", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "holdout") {
		t.Errorf("rejection %s does not mention the holdout", body)
	}
}

func TestServeFlagErrors(t *testing.T) {
	out, err := exec.Command(binary).CombinedOutput()
	if err == nil {
		t.Errorf("no -model accepted:\n%s", out)
	}
	out, err = exec.Command(binary, "-model", "/nonexistent.json").CombinedOutput()
	if err == nil {
		t.Errorf("missing model file accepted:\n%s", out)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("not a model"), 0o644)
	out, err = exec.Command(binary, "-model", bad).CombinedOutput()
	if err == nil {
		t.Errorf("garbage model accepted:\n%s", out)
	}
	if !bytes.Contains(out, []byte("monoserve:")) {
		t.Errorf("error output %q lacks the monoserve prefix", out)
	}
}

// TestServeTrainFlagErrors checks that the initial model comes from
// exactly one source: neither -model nor -train, or both, is refused.
// A binary that accepted the flags would start serving, so each run is
// killed after a deadline and then fails the check.
func TestServeTrainFlagErrors(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, binary, "-addr", "127.0.0.1:0").CombinedOutput()
	if err == nil || !bytes.Contains(out, []byte("exactly one of -model or -train")) {
		t.Errorf("neither -model nor -train accepted (%v):\n%s", err, out)
	}
	out, err = exec.CommandContext(ctx, binary, "-addr", "127.0.0.1:0", "-model", writeModel(t), "-train", figureCSV(t)).CombinedOutput()
	if err == nil || !bytes.Contains(out, []byte("exactly one of -model or -train")) {
		t.Errorf("-model with -train accepted (%v):\n%s", err, out)
	}
}

func TestServeReplicasMode(t *testing.T) {
	url, stop := startServer(t, "-model", writeModel(t), "-replicas", "2", "-sync-interval", "5ms")
	defer stop()

	// Classify through the fronting router.
	var res struct {
		Label   int   `json:"label"`
		Version int64 `json:"version"`
	}
	resp, err := http.Post(url+"/classify", "application/json", strings.NewReader(`{"point":[20,20]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Label != 1 || res.Version != 1 {
		t.Errorf("(20,20) → %+v, want label 1 version 1", res)
	}

	// Fleet health: both replicas up behind the one public address.
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy"`
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if hz.Status != "ok" || hz.Healthy != 2 {
		t.Errorf("healthz = %+v, want ok/2", hz)
	}

	// Promote through the router and wait for the replica to ack.
	cp, _ := monoclass.NewAnchorSet(2, []monoclass.Point{{-1e18, -1e18}})
	var buf bytes.Buffer
	if err := monoclass.SaveModel(&buf, cp); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(url+"/model", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("promote status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var agg struct {
			Sync []struct {
				Acked int64 `json:"acked"`
			} `json:"sync"`
		}
		err = json.NewDecoder(resp.Body).Decode(&agg)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(agg.Sync) == 1 && agg.Sync[0].Acked >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never acked the promotion: %+v", agg.Sync)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every replica now labels (0,0) positive under const-positive.
	for i := 0; i < 6; i++ {
		resp, err = http.Post(url+"/classify", "application/json", strings.NewReader(`{"point":[0,0]}`))
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if res.Label != 1 {
			t.Errorf("(0,0) attempt %d → %+v after const-positive promotion, want label 1", i, res)
		}
	}
}
