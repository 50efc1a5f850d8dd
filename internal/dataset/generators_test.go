package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/geom"
	"monoclass/internal/problem"
)

func TestPlantedNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := Planted(rng, PlantedParams{N: 200, D: 3, Noise: 0})
	if len(pts) != 200 {
		t.Fatalf("len = %d", len(pts))
	}
	if got := geom.MonotoneViolations(pts); got != 0 {
		t.Errorf("noiseless planted set has %d monotone violations", got)
	}
	for _, lp := range pts {
		if len(lp.P) != 3 {
			t.Fatal("wrong dimension")
		}
		for _, c := range lp.P {
			if c < 0 || c >= 1 {
				t.Fatalf("coordinate %g outside [0,1)", c)
			}
		}
	}
}

func TestPlantedNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := Planted(rng, PlantedParams{N: 400, D: 2, Noise: 0.2})
	ld := geom.LabeledDataset{Points: pts}
	sol, err := problem.Solve(ld.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	kstar := sol.WErr
	// With 20% noise the optimum must be positive but below the noise
	// count itself.
	if kstar <= 0 {
		t.Error("noisy planted set should not be monotone-consistent")
	}
	if kstar > 0.35*400 {
		t.Errorf("k* = %g suspiciously high for 20%% noise", kstar)
	}
}

func TestPlantedPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, f := range []func(){
		func() { Planted(rng, PlantedParams{N: -1, D: 2}) },
		func() { Planted(rng, PlantedParams{N: 1, D: 0}) },
		func() { Planted(rng, PlantedParams{N: 1, D: 2, Noise: 1}) },
		func() { WidthControlled(rng, WidthParams{N: 3, W: 5}) },
		func() { WidthControlled(rng, WidthParams{N: 5, W: 0}) },
		func() { WidthControlled(rng, WidthParams{N: 5, W: 2, Noise: -0.1}) },
		func() { Uniform1D(rng, -1, 0.5, 0) },
		func() { Uniform1D(rng, 5, 0.5, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestWidthControlledExactWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range []int{1, 2, 5, 13} {
		pts := WidthControlled(rng, WidthParams{N: 130, W: w, Noise: 0.1})
		if len(pts) != 130 {
			t.Fatalf("w=%d: len = %d", w, len(pts))
		}
		raw := make([]geom.Point, len(pts))
		for i, lp := range pts {
			raw[i] = lp.P
		}
		if got := chains.Width(raw); got != w {
			t.Errorf("w=%d: measured width %d", w, got)
		}
	}
}

func TestWidthControlledNoiselessConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := WidthControlled(rng, WidthParams{N: 80, W: 4, Noise: 0})
	if got := geom.MonotoneViolations(pts); got != 0 {
		t.Errorf("noiseless width-controlled set has %d violations", got)
	}
}

func TestUniform1D(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := Uniform1D(rng, 300, 0.5, 0)
	if len(pts) != 300 {
		t.Fatal("wrong size")
	}
	for _, lp := range pts {
		want := geom.Negative
		if lp.P[0] > 0.5 {
			want = geom.Positive
		}
		if lp.Label != want {
			t.Fatal("noiseless labels must follow the threshold")
		}
	}
	noisy := Uniform1D(rng, 2000, 0.5, 0.3)
	flips := 0
	for _, lp := range noisy {
		want := geom.Negative
		if lp.P[0] > 0.5 {
			want = geom.Positive
		}
		if lp.Label != want {
			flips++
		}
	}
	if frac := float64(flips) / 2000; frac < 0.25 || frac > 0.35 {
		t.Errorf("flip fraction %g far from 0.3", frac)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ws := Figure1Weighted()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ws); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ws) {
		t.Fatalf("round trip length %d != %d", len(got), len(ws))
	}
	for i := range ws {
		if !got[i].P.Equal(ws[i].P) || got[i].Label != ws[i].Label || got[i].Weight != ws[i].Weight {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, got[i], ws[i])
		}
	}
}

// TestReadCSVErrors pins each rejection's text, with the number of
// the line the bad record starts on: blank lines and CRLF line ends
// count as lines, and a quoted field that spans a newline leaves its
// record on the line it started on.
func TestReadCSVErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"1,2\n", "dataset: line 1 has 2 columns, need at least 3"},
		{"1,2,0,1\n3,4,0\n", "dataset: line 2 has 1 coordinates, want 2"},
		{"x,0,1\n", `dataset: line 1 column 1: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"1,2,7,1\n", `dataset: line 1: invalid label "7"`},
		{"1,2,0,zero\n", `dataset: line 1: invalid weight "zero"`},
		{"1,2,0,-5\n", "dataset: line 1: geom: weight must be positive and finite, got -5"},
		{"\n\n1,2,0,1\n3,4,1\n", "dataset: line 4 has 1 coordinates, want 2"},
		{"\n1,2,0,1\n\n\n3,4,7,1\n", `dataset: line 5: invalid label "7"`},
		{"1,2,0,1\r\n3,4,0,1\r\n\r\nx,4,0,1\r\n", `dataset: line 4 column 1: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"1,2,0,1\n\"3\n4\",5,0,1\n", `dataset: line 2 column 1: strconv.ParseFloat: parsing "3\n4": invalid syntax`},
		{"1,2,0,1\n\n\"3,4,0,1\n5,6,0,1\n", `dataset: reading CSV: line 3: extraneous or missing " in quoted field`},
		{"1,2,0,1\r\n\r\n3\"4,5,0,1\r\n", `dataset: reading CSV: line 3: bare " in non-quoted field`},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.in))
		if err == nil || err.Error() != c.want {
			t.Errorf("ReadCSV(%q) = %v, want %s", c.in, err, c.want)
		}
	}
	empty, err := ReadCSV(strings.NewReader(""))
	if err != nil || len(empty) != 0 {
		t.Error("empty CSV should parse to empty set")
	}
}
