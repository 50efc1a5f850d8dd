package problem

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"monoclass/internal/classifier"
	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/passive"
)

// FuzzTrainCSV holds the whole training path to the paper's
// guarantee: any CSV of at most 12 records that dataset.ReadCSV
// accepts must Prepare and Solve into a model that is monotone on the
// points, whose weighted error is the exhaustive optimum
// (passive.NaiveSolve) within 1e-9 relative, and whose reported error
// is what geom.WErr rescoring the model gives.
func FuzzTrainCSV(f *testing.F) {
	// FuzzReadCSV's seeds that ReadCSV accepts.
	for _, s := range []string{
		"1,2,0,1\n3,4,1,2\n",
		"-1e300,2,1,0.5\n",
		"-Inf,2,0,1\n+Inf,4,1,2\n",
		"\"1.5\",2,0,1\n",
		"1,2,\"0\"\n3,4,\"1\"\r\n",
		"1,2,0,1\r\n3,4,1,2\r\n",
		"\n\n1,2,0,1\n\r\n\n3,4,1,2\n\n",
		"1,2,0,1\r",
		"0x1p-2,0x1.8p3,0,1\n",
		"-0,0,1,0x1p-1\n",
		"1,2,+1,1\n1,3,-0,2\n",
		"1,2,0,1\n\n3,4,1,2\r\n5,6,0,1\n\n\n7,8,1,1",
	} {
		f.Add(s)
	}
	// Figure 1(b) in two 12-point windows, p1–p12 and p5–p16.
	fig := dataset.Figure1Weighted()
	for _, w := range [][2]int{{0, 12}, {4, 16}} {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, fig[w[0]:w[1]]); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, data string) {
		ws, err := dataset.ReadCSV(strings.NewReader(data))
		if err != nil || len(ws) == 0 || len(ws) > 12 {
			return
		}
		p, err := Prepare(ws, Options{})
		if err != nil {
			t.Fatalf("accepted CSV fails to prepare: %v", err)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("accepted CSV fails to solve: %v", err)
		}
		checkOptimal(t, ws, sol)
		if got := geom.WErr(ws, classifier.Func(sol.Classifier)); got != sol.WErr {
			t.Fatalf("model rescored to weighted error %g, Solve reported %g", got, sol.WErr)
		}
	})
}

// checkOptimal fails t unless sol's model is monotone on ws's points
// and its weighted error is the exhaustive optimum (passive.NaiveSolve)
// within 1e-9 relative. ws must be small enough for NaiveSolve.
func checkOptimal(t *testing.T, ws geom.WeightedSet, sol passive.Solution) {
	t.Helper()
	pts := make([]geom.Point, len(ws))
	for i, wp := range ws {
		pts[i] = wp.P
	}
	if ok, hi, lo := classifier.IsMonotoneOn(pts, sol.Classifier); !ok {
		t.Fatalf("model labels %v 0 and the point %v below it 1", hi, lo)
	}
	naive, err := passive.NaiveSolve(ws)
	if err != nil {
		t.Fatalf("naive solve: %v", err)
	}
	if diff := math.Abs(sol.WErr - naive.WErr); diff > 1e-9*math.Max(math.Abs(sol.WErr), math.Abs(naive.WErr)) {
		t.Fatalf("solved weighted error %g, exhaustive optimum %g", sol.WErr, naive.WErr)
	}
}
