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

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"1,2\n",            // too few columns
		"1,2,0,1\n3,4,0\n", // inconsistent dimensions
		"x,0,1\n",          // bad coordinate
		"1,2,7,1\n",        // bad label
		"1,2,0,zero\n",     // bad weight
		"1,2,0,-5\n",       // non-positive weight
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: malformed CSV accepted", i)
		}
	}
	empty, err := ReadCSV(strings.NewReader(""))
	if err != nil || len(empty) != 0 {
		t.Error("empty CSV should parse to empty set")
	}
}
