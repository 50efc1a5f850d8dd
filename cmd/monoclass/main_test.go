package main

import (
	"bytes"
	"errors"
	"io"
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

// cubeCSV writes the unit cube's eight corners at d = 3 to a temp CSV:
// width 3, but a best-fit seed cover of 4 chains that no antichain
// certifies.
func cubeCSV(t *testing.T) string {
	t.Helper()
	var ws monoclass.WeightedSet
	for c := 0; c < 8; c++ {
		p := monoclass.Point{float64(c >> 2), float64(c >> 1 & 1), float64(c & 1)}
		ws = append(ws, monoclass.WeightedPoint{P: p, Label: monoclass.Label(c % 2), Weight: 1})
	}
	path := filepath.Join(t.TempDir(), "cube.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := monoclass.WriteCSV(f, ws); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIPrepareCover: prepare prints the cover's chain count, says
// whether an antichain certifies it as the width, and points to
// 'monoclass width' when none does; it no longer advises raising
// -exact-decompose-limit. A second prepare into the same path
// replaces the file and leaves no temporary file beside it.
func TestCLIPrepareCover(t *testing.T) {
	out := filepath.Join(t.TempDir(), "problem.json")
	got, err := run(t, "prepare", "-in", cubeCSV(t), "-out", out)
	if err != nil {
		t.Fatalf("%v\n%s", err, got)
	}
	for _, want := range []string{
		"cover:       4 chains (at least the dominance width; 'monoclass width' computes it)\n",
		"decompose:   seed-dense (seed 4 chains)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("prepare output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "exact-decompose-limit") {
		t.Errorf("prepare still advises raising the limit:\n%s", got)
	}
	if got, err := run(t, "width", "-in", cubeCSV(t)); err != nil || !strings.Contains(got, "dominance width: 3\n") {
		t.Errorf("width (%v):\n%s", err, got)
	}

	got, err = run(t, "prepare", "-in", figureCSV(t), "-out", out)
	if err != nil {
		t.Fatalf("%v\n%s", err, got)
	}
	if want := "cover:       6 chains (the dominance width, certified by an antichain)\n"; !strings.Contains(got, want) {
		t.Errorf("prepare output lacks %q:\n%s", want, got)
	}
	entries, err := os.ReadDir(filepath.Dir(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "problem.json" {
		t.Fatalf("output directory holds %v, want problem.json alone", entries)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if p, err := monoclass.LoadProblem(f); err != nil || p.N() != 16 {
		t.Fatalf("rewritten problem file: %v", err)
	}
}

// TestWriteFileAtomic: a writer that fails partway leaves the previous
// file byte for byte and no temporary file behind; one that succeeds
// replaces it with mode 0644.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	old := []byte(`{"previous":true}`)
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}
	failing := func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"half`); err != nil {
			return err
		}
		return errors.New("encoder failed")
	}
	if err := writeFileAtomic(path, failing); err == nil || err.Error() != "encoder failed" {
		t.Fatalf("failing encoder: error %v", err)
	}
	checkDir := func(want []byte) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "model.json" {
			t.Fatalf("directory holds %v, want model.json alone", entries)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("file holds %q (%v), want %q", got, err, want)
		}
	}
	checkDir(old)

	fresh := []byte(`{"fresh":true}`)
	if err := writeFileAtomic(path, func(w io.Writer) error { _, err := w.Write(fresh); return err }); err != nil {
		t.Fatal(err)
	}
	checkDir(fresh)
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v (%v), want 0644", info.Mode().Perm(), err)
	}
	// A directory that does not exist fails before anything is written.
	if err := writeFileAtomic(filepath.Join(dir, "missing", "m.json"), failing); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	checkDir(fresh)
}
