package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"monoclass"
)

// binary is the compiled CLI under test, built once per test run.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "monoclass-cli")
	if err != nil {
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binary = filepath.Join(dir, "monoclass")
	build := exec.Command("go", "build", "-o", binary, ".")
	if out, err := build.CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// run executes the CLI and returns stdout+stderr.
func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(binary, args...).CombinedOutput()
	return string(out), err
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

func TestCLIPassive(t *testing.T) {
	out, err := run(t, "passive", "-in", figureCSV(t))
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "optimal weighted error: 104") {
		t.Errorf("missing the Figure 1(b) optimum in:\n%s", out)
	}
}

func TestCLIActiveSaveEval(t *testing.T) {
	csv := figureCSV(t)
	model := filepath.Join(t.TempDir(), "model.json")
	out, err := run(t, "active", "-in", csv, "-eps", "0.5", "-save", model)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// At n=16 the practical constants degrade to exhaustive probing,
	// which is exact; the weighted k* is 104.
	if !strings.Contains(out, "probes:") || !strings.Contains(out, "dominance width:  6") {
		t.Errorf("unexpected active output:\n%s", out)
	}
	out, err = run(t, "eval", "-in", csv, "-model", model)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// Problem 1 ignores weights: the active learner returns the
	// unweighted optimum (3 mistakes: p1, p11, p15), whose weighted
	// error on the Figure 1(b) weights is 220 — exactly the value
	// Section 1.1 computes for this classifier.
	if !strings.Contains(out, "weighted error: 220") {
		t.Errorf("eval output wrong:\n%s", out)
	}
}

func TestCLIWidthAuditHasse(t *testing.T) {
	csv := figureCSV(t)
	out, err := run(t, "width", "-in", csv)
	if err != nil || !strings.Contains(out, "dominance width: 6") {
		t.Errorf("width failed (%v):\n%s", err, out)
	}
	out, err = run(t, "audit", "-in", csv)
	if err != nil || !strings.Contains(out, "optimal error k*:     104") {
		t.Errorf("audit failed (%v):\n%s", err, out)
	}
	out, err = run(t, "hasse", "-in", csv)
	if err != nil || !strings.Contains(out, "digraph hasse") {
		t.Errorf("hasse failed (%v):\n%s", err, out)
	}
}

// TestCLIWidthPastExactLimit: one point past the exact-decomposition
// limit at d=3, width and active report the greedy cover's chain count
// as an upper bound, and width prints no antichain certificate.
func TestCLIWidthPastExactLimit(t *testing.T) {
	const chains, n = 16, 65537
	ws := make(monoclass.WeightedSet, n)
	for i := range ws {
		tt, j := float64(i/chains), float64(i%chains)
		label := monoclass.Negative
		if tt >= n/chains/2 {
			label = monoclass.Positive
		}
		ws[i] = monoclass.WeightedPoint{P: monoclass.Point{tt + j, tt + j, tt + chains - j}, Label: label, Weight: 1}
	}
	path := filepath.Join(t.TempDir(), "wide.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := monoclass.WriteCSV(f, ws); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out, err := run(t, "width", "-in", path)
	if err != nil || !strings.Contains(out, "dominance width: ≤ 16 (greedy") || strings.Contains(out, "antichain") {
		t.Errorf("width past the limit (%v):\n%s", err, out)
	}
	out, err = run(t, "active", "-in", path)
	if err != nil || !strings.Contains(out, "dominance width:  ≤ 16 (greedy") {
		t.Errorf("active past the limit (%v):\n%s", err, out)
	}
}

func TestCLIErrors(t *testing.T) {
	if out, err := run(t); err == nil {
		t.Errorf("no-arg run should fail:\n%s", out)
	}
	if out, err := run(t, "frobnicate"); err == nil {
		t.Errorf("unknown subcommand should fail:\n%s", out)
	}
	if out, err := run(t, "passive"); err == nil {
		t.Errorf("missing -in should fail:\n%s", out)
	}
	if out, err := run(t, "passive", "-in", "/nonexistent.csv"); err == nil {
		t.Errorf("missing file should fail:\n%s", out)
	}
	if out, err := run(t, "eval", "-in", figureCSV(t), "-model", "/nonexistent.json"); err == nil {
		t.Errorf("missing model should fail:\n%s", out)
	}
}

func TestCLITradeoff(t *testing.T) {
	out, err := run(t, "tradeoff", "-in", figureCSV(t), "-levels", "10,2")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "levels") || !strings.Contains(out, "width") {
		t.Errorf("tradeoff output wrong:\n%s", out)
	}
	if out, err := run(t, "tradeoff", "-in", figureCSV(t), "-levels", "zero"); err == nil {
		t.Errorf("bad levels accepted:\n%s", out)
	}
}
