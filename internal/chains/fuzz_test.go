package chains

import (
	"math"
	"reflect"
	"testing"

	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/matching"
)

// decodePoints interprets fuzz bytes as a point set on a small integer
// grid: the first byte fixes the dimension (1..4), then every d bytes
// form one point with coordinates in 0..7 (small grid → dense ties and
// duplicates, the regime where kernel and scalar paths can disagree),
// except that byte 0xff decodes to +Inf, 0xfe to −Inf and 0xfd to −0
// (a tie with the 0 that bytes ≡ 0 mod 8 decode to), so a point can
// hold both infinities and sum to NaN. Up to 130 points decode, so a
// matrix row spans three 64-bit words and the matcher's per-word
// masks meet both word boundaries.
func decodePoints(data []byte) []geom.Point {
	if len(data) < 1 {
		return nil
	}
	d := 1 + int(data[0])%4
	body := data[1:]
	n := len(body) / d
	if n > 130 {
		n = 130
	}
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		p := make(geom.Point, d)
		for k := 0; k < d; k++ {
			switch b := body[i*d+k]; b {
			case 0xff:
				p[k] = math.Inf(1)
			case 0xfe:
				p[k] = math.Inf(-1)
			case 0xfd:
				p[k] = math.Copysign(0, -1)
			default:
				p[k] = float64(b % 8)
			}
		}
		pts[i] = p
	}
	return pts
}

// FuzzDecomposeKernelVsScalar feeds arbitrary small point sets to the
// bit-packed decomposition kernel (warm-started) and its scalar
// oracle: both must produce valid minimum chain decompositions of
// identical width, matching the independent Width computation. The
// kernel's certificate must be an antichain of that width, its
// warm-start accounting must balance, and the all-singletons seed —
// an empty matching, so the matcher's full cold phase schedule — must
// reach the same width. The matcher's closure rules must change
// nothing: from the best-fit seed and from an empty one, the DAG graph
// returns the generic graph's matching, stats and König cover over
// the same rows, scanning no more rows. The route every caller takes
// (Decompose, the rank-array fast paths at d ≤ 2) must return valid
// chains and an antichain of the scalar width.
func FuzzDecomposeKernelVsScalar(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})                   // 1-d chain
	f.Add([]byte{1, 0, 7, 1, 6, 2, 5, 3, 4})       // 2-d antichain
	f.Add([]byte{1, 2, 2, 2, 2, 2, 2, 1, 1, 3, 3}) // 2-d with duplicates
	f.Add([]byte{3, 1, 1, 1, 1, 2, 2, 2, 2})       // 4-d comparable pair
	f.Add([]byte{2})                               // empty
	// Warm-start-path seeds: shapes that drive the seed/certificate
	// machinery — cert fires on the pure chain and pure antichain,
	// duplicates force index-tiebreak DAG edges in the greedy seed,
	// and the mixed grid leaves a seed-to-optimum augmentation gap.
	f.Add([]byte{2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4})                   // 3-d total chain → cert early exit
	f.Add([]byte{2, 0, 7, 0, 1, 6, 1, 2, 5, 2, 3, 4, 3})             // 3-d antichain → cert early exit
	f.Add([]byte{2, 5, 5, 5, 5, 5, 5, 5, 5, 5, 0, 0, 0})             // 3-d duplicates → tiebreak seed edges
	f.Add([]byte{2, 1, 0, 2, 0, 1, 2, 2, 2, 0, 1, 1, 1, 0, 2, 1})    // 3-d mixed → augmentation gap
	f.Add([]byte{3, 3, 0, 0, 3, 0, 3, 3, 0, 3, 0, 3, 3, 1, 1, 1, 1}) // 4-d near-antichain with one chain link
	// 3-d points holding both +Inf and −Inf: their plain coordinate
	// sums are NaN.
	f.Add([]byte{2, 0xff, 0xfe, 3, 0xfe, 0xff, 1, 2, 2, 2, 0xff, 0xff, 0xff, 0xfe, 0xfe, 0xfe, 0xff, 0xfe, 0xfe})
	f.Add([]byte{1, 0xfd, 0, 0, 0xfd, 0xfd, 0xfd, 0, 0, 1, 0xfd, 0xfd, 1}) // 2-d −0/+0 ties
	wide := []byte{2}                                                      // 130 3-d points: rows span three words
	for i := 0; i < 3*130; i++ {
		wide = append(wide, byte(i*37%61))
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)
		if pts == nil {
			return
		}
		kernel := decomposeDense(pts)
		scalar := DecomposeGenericScalar(pts)
		if len(kernel.Chains) != len(scalar.Chains) {
			t.Fatalf("kernel width %d, scalar width %d", len(kernel.Chains), len(scalar.Chains))
		}
		if w := Width(pts); w != len(kernel.Chains) {
			t.Fatalf("decomposition width %d, Width() says %d", len(kernel.Chains), w)
		}
		route := Decompose(pts)
		if err := ValidateDecomposition(pts, route.Chains); err != nil {
			t.Fatalf("route decomposition invalid: %v", err)
		}
		if route.Width != scalar.Width || len(route.Antichain) != scalar.Width {
			t.Fatalf("route width %d with a %d-point antichain, scalar width %d", route.Width, len(route.Antichain), scalar.Width)
		}
		if err := ValidateAntichain(pts, route.Antichain); err != nil {
			t.Fatalf("route certificate invalid: %v", err)
		}
		if err := ValidateDecomposition(pts, kernel.Chains); err != nil {
			t.Fatalf("kernel decomposition invalid: %v", err)
		}
		if err := ValidateDecomposition(pts, scalar.Chains); err != nil {
			t.Fatalf("scalar decomposition invalid: %v", err)
		}
		if len(kernel.Antichain) != len(kernel.Chains) {
			t.Fatalf("kernel certificate holds %d points for width %d", len(kernel.Antichain), len(kernel.Chains))
		}
		if err := ValidateAntichain(pts, kernel.Antichain); err != nil {
			t.Fatalf("kernel certificate invalid: %v", err)
		}
		if len(pts) > 0 {
			m := domgraph.Build(pts)
			_, st := DecomposeMatrixStats(pts, m)
			if st.Augmentations != st.SeedChains-st.Width {
				t.Fatalf("%d augmentations for seed %d -> width %d", st.Augmentations, st.SeedChains, st.Width)
			}
			singletons := make([][]int, len(pts))
			for i := range singletons {
				singletons[i] = []int{i}
			}
			cold, _ := DecomposeMatrixSeeded(pts, m, singletons)
			if cold.Width != scalar.Width {
				t.Fatalf("singletons-seeded width %d, scalar width %d", cold.Width, scalar.Width)
			}
			if err := ValidateDecomposition(pts, cold.Chains); err != nil {
				t.Fatalf("singletons-seeded decomposition invalid: %v", err)
			}
			n := len(pts)
			rows, off := m.DAGRows()
			gen := matching.BitsetFromRows(n, n, rows, off)
			dag := matching.BitsetFromDAG(n, rows, off)
			for _, seed := range [][]int{greedySeedBitset(m), nil} {
				mg, sg := matching.MaxMatchingBitsetWarm(gen, seed)
				md, sd := matching.MaxMatchingBitsetWarm(dag, seed)
				if !reflect.DeepEqual(mg, md) {
					t.Fatalf("DAG matching diverges from the generic one (seeded: %v)", seed != nil)
				}
				if sd.RowScans > sg.RowScans {
					t.Fatalf("DAG path scanned %d rows, generic %d", sd.RowScans, sg.RowScans)
				}
				if sd.RowScans = sg.RowScans; sd != sg {
					t.Fatalf("stats diverge: DAG %+v, generic %+v", sd, sg)
				}
				gl, gr := matching.MinVertexCoverBitset(gen, mg)
				dl, dr := matching.MinVertexCoverBitset(dag, md)
				if !reflect.DeepEqual(gl, dl) || !reflect.DeepEqual(gr, dr) {
					t.Fatal("König covers diverge")
				}
			}
		}
	})
}
