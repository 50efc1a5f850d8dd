package conformance

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/classifier"
	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/problem"
)

// TestGoldenFigure1 pins the paper's Figure 1 worked example end to
// end: the chain structure, the unweighted and weighted passive
// optima, the exact positive set of the weighted solution, and the
// serialized model bytes. Regenerate the byte golden with
// UPDATE_GOLDEN=1 after an intentional format change.
func TestGoldenFigure1(t *testing.T) {
	lps := dataset.Figure1()
	pts := make([]geom.Point, len(lps))
	for i, lp := range lps {
		pts[i] = lp.P
	}

	// Structure: width 6, the paper's antichain and 6-chain
	// decomposition are both valid, and our decomposition achieves the
	// width.
	if w := chains.Width(pts); w != 6 {
		t.Errorf("width = %d, want 6", w)
	}
	antichain := []int{9, 10, 11, 12, 13, 15} // {p10,p11,p12,p13,p14,p16}
	if err := chains.ValidateAntichain(pts, antichain); err != nil {
		t.Errorf("paper antichain invalid: %v", err)
	}
	if err := chains.ValidateDecomposition(pts, dataset.Figure1Chains()); err != nil {
		t.Errorf("paper decomposition invalid: %v", err)
	}
	dec := chains.Decompose(pts)
	if len(dec.Chains) != 6 {
		t.Errorf("Decompose produced %d chains, want 6", len(dec.Chains))
	}
	if err := chains.ValidateDecomposition(pts, dec.Chains); err != nil {
		t.Errorf("Decompose output invalid: %v", err)
	}

	// Unweighted optimum k* = 3, |P^con| = 10.
	unit := make(geom.WeightedSet, len(lps))
	for i, lp := range lps {
		unit[i] = geom.WeightedPoint{P: lp.P, Label: lp.Label, Weight: 1}
	}
	usol, err := problem.Solve(unit)
	if err != nil {
		t.Fatal(err)
	}
	if usol.WErr != 3 {
		t.Errorf("unweighted optimum = %g, want 3", usol.WErr)
	}
	if usol.Stats.Contending != 10 {
		t.Errorf("|P^con| = %d, want 10", usol.Stats.Contending)
	}

	// Weighted (Figure 1(b)): optimum 104, positives exactly
	// {p10, p12, p16}.
	wsol, err := problem.Solve(dataset.Figure1Weighted())
	if err != nil {
		t.Fatal(err)
	}
	if wsol.WErr != 104 {
		t.Errorf("weighted optimum = %g, want 104", wsol.WErr)
	}
	wantPos := map[int]bool{9: true, 11: true, 15: true}
	for i, lab := range wsol.Assignment {
		if (lab == geom.Positive) != wantPos[i] {
			t.Errorf("assignment[p%d] = %v, want positive=%v", i+1, lab, wantPos[i])
		}
	}

	// Serialized model bytes.
	var buf bytes.Buffer
	if err := classifier.WriteModel(&buf, wsol.Classifier); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "figure1-model.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("serialized model drifted from %s:\ngot:\n%s\nwant:\n%s", goldenPath, buf.Bytes(), want)
	}
	// The golden bytes must also load back into a classifier that
	// reproduces the optimal assignment.
	h, err := classifier.ReadModel(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden model does not load: %v", err)
	}
	for i, lp := range lps {
		if got := h.Classify(lp.P); got != wsol.Assignment[i] {
			t.Errorf("golden model classifies p%d as %v, want %v", i+1, got, wsol.Assignment[i])
		}
	}
}
