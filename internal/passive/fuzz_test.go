package passive

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

// decodeWeightedSet interprets fuzz bytes as a weighted point set: the
// first byte fixes the dimension (1..4), then every d+1 bytes form one
// point. Each coordinate byte maps to 0..7 on a small grid (dense ties
// and duplicates), or to −Inf or +Inf; the last byte's low bit is the
// label and the rest picks an integer weight 1..4, so the optimum is an
// exact float. Up to 130 points decode, so matrix rows span three
// 64-bit words.
func decodeWeightedSet(data []byte) geom.WeightedSet {
	if len(data) < 1 {
		return nil
	}
	d := 1 + int(data[0])%4
	body := data[1:]
	n := min(len(body)/(d+1), 130)
	ws := make(geom.WeightedSet, n)
	for i := range ws {
		rec := body[i*(d+1) : (i+1)*(d+1)]
		p := make(geom.Point, d)
		for k := range p {
			switch c := rec[k] % 10; c {
			case 8:
				p[k] = math.Inf(-1)
			case 9:
				p[k] = math.Inf(1)
			default:
				p[k] = float64(c)
			}
		}
		ws[i] = geom.WeightedPoint{P: p, Label: geom.Label(rec[d] & 1), Weight: float64(1 + rec[d]>>1%4)}
	}
	return ws
}

// FuzzPassiveNetwork feeds arbitrary weighted sets to the one ∞-edge
// builder and the network it feeds. Over the minimum and the greedy
// cover, every edge must be sound and keep the label-split budget,
// reachability from each contending label-0 point must equal
// dominance over the contending label-1 points, and the matrix and
// implicit views must emit identical edge lists. The
// solved network must then return exactly the literal Section 5.1
// construction's WErr, assignment and anchors.
func FuzzPassiveNetwork(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3, 4})                      // 1-d, alternating labels
	f.Add([]byte{1, 3, 3, 0, 3, 3, 1, 3, 3, 2, 3, 3, 3, 0, 0, 1}) // 2-d duplicates of both labels
	f.Add([]byte{1, 8, 5, 1, 9, 9, 0, 5, 8, 3, 9, 2, 0, 2, 9, 7}) // 2-d ±Inf
	f.Add([]byte{2, 1, 1, 1, 0, 2, 2, 2, 1, 0, 0, 0, 6, 3, 3, 3, 0, 9, 9, 9, 5})
	f.Add([]byte{3, 0, 7, 0, 7, 1, 7, 0, 7, 0, 0, 1, 1, 1, 1, 6, 6, 6, 6, 6, 7})
	f.Add([]byte{2})  // empty
	wide := []byte{2} // 130 3-d points: rows span three words
	for i := 0; i < 4*130; i++ {
		wide = append(wide, byte(i*37%61))
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		ws := decodeWeightedSet(data)
		if len(ws) == 0 {
			return
		}
		checkBuilder(t, fmt.Sprintf("n=%d d=%d", len(ws), ws.Dim()), ws)

		literal, err := solveLiteral(ws)
		if err != nil {
			t.Fatalf("literal solve: %v", err)
		}
		pts := pointsOf(ws)
		m := domgraph.Build(pts)
		for name, cover := range map[string][][]int{
			"minimum": chains.Decompose(pts).Chains,
			"greedy":  chains.GreedyDecompose(pts),
		} {
			got, err := Prepare(ws, m, cover).Resolve(nil)
			if err != nil {
				t.Fatalf("%s cover: %v", name, err)
			}
			if got.WErr != literal.WErr {
				t.Fatalf("%s cover: WErr %g, literal %g", name, got.WErr, literal.WErr)
			}
			if !reflect.DeepEqual(got.Assignment, literal.Assignment) {
				t.Fatalf("%s cover: assignment %v, literal %v", name, got.Assignment, literal.Assignment)
			}
			if a, b := got.Classifier.Anchors(), literal.Classifier.Anchors(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s cover: anchors %v, literal %v", name, a, b)
			}
		}
	})
}
