package classifier

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"monoclass/internal/geom"
)

func TestModelRoundTrip(t *testing.T) {
	h := MustAnchorSet(3, []geom.Point{{1, 2, 3}, {0, 5, 1}})
	var buf bytes.Buffer
	if err := WriteModel(&buf, h); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim() != 3 || len(back.Anchors()) != len(h.Anchors()) {
		t.Fatalf("shape mismatch after round trip: %v", back)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := geom.Point{rng.Float64() * 6, rng.Float64() * 6, rng.Float64() * 6}
		if h.Classify(p) != back.Classify(p) {
			t.Fatalf("classification changed at %v", p)
		}
	}
}

func TestModelRoundTripInfinities(t *testing.T) {
	h := ConstPositive(2)
	var buf bytes.Buffer
	if err := WriteModel(&buf, h); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"-inf"`) {
		t.Errorf("infinite anchor not encoded symbolically:\n%s", buf.String())
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Classify(geom.Point{-1e300, -1e300}) != geom.Positive {
		t.Error("constant-positive classifier lost in round trip")
	}
}

func TestModelRoundTripEmpty(t *testing.T) {
	h := ConstNegative(4)
	var buf bytes.Buffer
	if err := WriteModel(&buf, h); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Classify(geom.Point{9, 9, 9, 9}) != geom.Negative {
		t.Error("constant-negative classifier lost in round trip")
	}
}

func TestReadModelRejectsMalformed(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"format":"other","version":1,"dim":2}`,
		`{"format":"monoclass-anchors","version":9,"dim":2}`,
		`{"format":"monoclass-anchors","version":1,"dim":2,"anchors":[[1]]}`,      // wrong anchor dim
		`{"format":"monoclass-anchors","version":1,"dim":0,"anchors":[]}`,         // bad dim
		`{"format":"monoclass-anchors","version":1,"dim":1,"anchors":[["huh"]]}`,  // bad coord string
		`{"format":"monoclass-anchors","version":1,"dim":1,"anchors":[[{}]]}`,     // bad coord type
		`{"format":"monoclass-anchors","version":1,"dim":2,"anchors":[[1,null]]}`, // null coord, not 0
		`{"format":"monoclass-anchors","version":1,"dim":1,"anchors":[[1]]} x`,    // trailing data
		`{"format":"monoclass-anchors","version":1,"dim":1,"anchors":[[1]]}{}`,    // second value
	}
	for i, c := range cases {
		if _, err := ReadModel(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: malformed model accepted", i)
		}
	}
}

func TestReadModelPrunesRedundantAnchors(t *testing.T) {
	in := `{"format":"monoclass-anchors","version":1,"dim":2,
	        "anchors":[[1,1],[2,2],[1,1]]}`
	h, err := ReadModel(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Anchors()) != 1 {
		t.Errorf("anchors = %d, want 1 after pruning", len(h.Anchors()))
	}
}
