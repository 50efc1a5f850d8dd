package classifier

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"monoclass/internal/geom"
)

// figure1ModelJSON is the golden serialization of the Figure 1 optimal
// classifier (internal/conformance/testdata/figure1-model.golden.json).
const figure1ModelJSON = `{"format":"monoclass-anchors","version":1,"dim":2,"anchors":[[4,16],[8,12],[11,11]]}`

// FuzzModelRoundTrip attacks model (de)serialization fidelity: for any
// input bytes the loader either errors cleanly (never panics) or
// accepts a model that save→reload reproduces exactly — same shape AND
// the same classification on probe points derived from the anchors
// (each anchor, nudged below, nudged above, and mixed across anchors),
// where infinities and extreme magnitudes make naive float printing
// lossy.
func FuzzModelRoundTrip(f *testing.F) {
	// Seed corpus: the Figure 1 golden model, valid edge cases, and
	// truncated / malformed / type-confused / hostile variants.
	f.Add(figure1ModelJSON)
	f.Add(figure1ModelJSON[:len(figure1ModelJSON)/2]) // truncated mid-anchor
	f.Add(`{"format":"monoclass-anchors","version":1,"dim":2,"anchors":[["-inf","-inf"]]}`)
	f.Add(`{"format":"monoclass-anchors","version":1,"dim":3,"anchors":[[1e308,-1e308,5e-324]]}`)
	f.Add(`{"format":"monoclass-anchors","version":1,"dim":2,"anchors":[[4,16],[4,16]]}`)
	f.Add(`{"format":"monoclass-anchors","version":2,"dim":1,"anchors":[[0]]}`)
	f.Add(`{"format":"monoclass-anchors","version":1,"dim":2,"anchors":[[1,"nan"]]}`)
	f.Add(`{"format":"monoclass-anchors","version":1,"dim":2,"anchors":[[1,null]]}`)
	f.Add(figure1ModelJSON + `{"format":"monoclass-anchors"}`)
	f.Add(`{"format":"monoclass-anchors","version":1,"dim":2,"anchors":[[1],[2,3]]}`)
	f.Add(`{"format":"monoclass-anchors","version":1,"dim":-1,"anchors":[]}`)
	f.Add(`{"format":"evil","version":1,"dim":1,"anchors":[[0]]}`)
	f.Add(`{"format":"monoclass-anchors","version":1,"dim":1,"anchors":{"0":[1]}}`)
	f.Add(`[{"format":"monoclass-anchors"}]`)
	f.Add("\x00\xff\xfe")
	f.Add(strings.Repeat("[", 64))
	f.Fuzz(func(t *testing.T, data string) {
		h, err := ReadModel(strings.NewReader(data))
		if err != nil {
			return // rejected cleanly — that's fine; panics fail the fuzz run
		}
		var buf bytes.Buffer
		if err := WriteModel(&buf, h); err != nil {
			t.Fatalf("accepted model fails to serialize: %v", err)
		}
		back, err := ReadModel(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected:\n%s\nerror: %v", buf.String(), err)
		}
		if back.Dim() != h.Dim() {
			t.Fatalf("round trip changed dim %d → %d", h.Dim(), back.Dim())
		}
		ha, ba := h.Anchors(), back.Anchors()
		if len(ba) != len(ha) {
			t.Fatalf("round trip changed anchor count %d → %d", len(ha), len(ba))
		}
		for _, p := range probePoints(ha, h.Dim()) {
			if got, want := back.Classify(p), h.Classify(p); got != want {
				t.Fatalf("round trip changed Classify(%v): %v → %v", p, want, got)
			}
		}
	})
}

// probePoints derives classification probes from the anchors: each
// anchor itself (boundary, inclusive), each anchor nudged just below /
// above per coordinate, and coordinate-wise mixes of anchor pairs.
func probePoints(anchors []geom.Point, dim int) []geom.Point {
	probes := []geom.Point{make(geom.Point, dim)} // origin
	for _, a := range anchors {
		probes = append(probes, a)
		for k := range a {
			lo, hi := append(geom.Point(nil), a...), append(geom.Point(nil), a...)
			lo[k] = math.Nextafter(lo[k], math.Inf(-1))
			hi[k] = math.Nextafter(hi[k], math.Inf(1))
			probes = append(probes, lo, hi)
		}
	}
	for i := 0; i+1 < len(anchors) && i < 4; i++ {
		mix := append(geom.Point(nil), anchors[i]...)
		for k := range mix {
			if k%2 == 1 {
				mix[k] = anchors[i+1][k]
			}
		}
		probes = append(probes, mix)
	}
	return probes
}

// FuzzReadModel feeds arbitrary bytes to the model loader: it must
// never panic, and any accepted model must re-serialize and reload to
// an equivalent classifier.
func FuzzReadModel(f *testing.F) {
	var sample bytes.Buffer
	WriteModel(&sample, MustAnchorSet(2, []geom.Point{{1, 2}, {0, 5}}))
	f.Add(sample.String())
	f.Add(`{"format":"monoclass-anchors","version":1,"dim":2,"anchors":[["+inf","-inf"]]}`)
	f.Add(`{"format":"monoclass-anchors","version":1,"dim":1,"anchors":[]}`)
	f.Add(`{}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, data string) {
		h, err := ReadModel(strings.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteModel(&buf, h); err != nil {
			t.Fatalf("accepted model fails to serialize: %v", err)
		}
		back, err := ReadModel(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Dim() != h.Dim() || len(back.Anchors()) != len(h.Anchors()) {
			t.Fatal("round trip changed the model shape")
		}
	})
}
