package matching

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

// randomDAGPoints draws n points in d dimensions on a small grid, so
// duplicates and ties are common, with about one coordinate in ten
// replaced by +Inf or −Inf.
func randomDAGPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for k := range p {
			switch r := rng.Intn(20); {
			case r == 0:
				p[k] = math.Inf(1)
			case r == 1:
				p[k] = math.Inf(-1)
			default:
				p[k] = float64(rng.Intn(6))
			}
		}
		pts[i] = p
	}
	return pts
}

// TestDAGRulesMatchGeneric: over the dominance DAG triangle of random
// point sets (d=1–4, n ≤ 130, duplicates, ±Inf), a BitsetFromDAG graph
// and a BitsetFromRows graph over the same rows and seed return the
// same Matching, the same stats bar RowScans, and the same König
// cover. The closure rules may only lower RowScans, and over the
// trials they must lower it somewhere, or they never fired. The
// generic graph over the triangular rows also returns exactly what a
// graph of full-width rows holding the same edges returns: scanning
// only a row's own words changes nothing.
func TestDAGRulesMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	saved := 0
	for trial := 0; trial < 300; trial++ {
		d := 1 + trial%4
		n := 1 + rng.Intn(130)
		rows, off := domgraph.Build(randomDAGPoints(rng, n, d)).DAGRows()
		gen := BitsetFromRows(n, n, rows, off)
		dag := BitsetFromDAG(n, rows, off)
		full := newBitsetGraph(n, n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if gen.HasEdge(u, v) {
					full.setEdge(u, v)
				}
			}
		}
		for _, seed := range [][]int{nil, greedySeed(gen)} {
			mf, sf := MaxMatchingBitsetWarm(full, seed)
			mg, sg := MaxMatchingBitsetWarm(gen, seed)
			if !reflect.DeepEqual(mf, mg) || sf != sg {
				t.Fatalf("trial %d (n=%d d=%d): triangular rows diverge from full ones: %+v vs %+v", trial, n, d, sg, sf)
			}
			cfL, cfR := MinVertexCoverBitset(full, mf)
			md, sd := MaxMatchingBitsetWarm(dag, seed)
			if !reflect.DeepEqual(mg, md) {
				t.Fatalf("trial %d (n=%d d=%d): DAG matching diverges from the generic one", trial, n, d)
			}
			if sd.RowScans > sg.RowScans {
				t.Fatalf("trial %d: DAG path scanned %d rows, generic %d", trial, sd.RowScans, sg.RowScans)
			}
			saved += sg.RowScans - sd.RowScans
			sd.RowScans = sg.RowScans
			if sd != sg {
				t.Fatalf("trial %d: stats diverge: DAG %+v, generic %+v", trial, sd, sg)
			}
			cgL, cgR := MinVertexCoverBitset(gen, mg)
			cdL, cdR := MinVertexCoverBitset(dag, md)
			if !reflect.DeepEqual(cgL, cdL) || !reflect.DeepEqual(cgR, cdR) ||
				!reflect.DeepEqual(cfL, cgL) || !reflect.DeepEqual(cfR, cgR) {
				t.Fatalf("trial %d: König covers diverge", trial)
			}
		}
	}
	if saved == 0 {
		t.Fatal("the closure rules skipped no row in any trial")
	}
}

// TestBitsetFromDAGValidates: BitsetFromDAG reads triangular rows
// through their offsets, checks them like BitsetFromRows, and the
// graph is square.
func TestBitsetFromDAGValidates(t *testing.T) {
	// Total order 2 → 1 → 0: row 0 empty, row 1 {0}, row 2 {0, 1}.
	b := BitsetFromDAG(3, []uint64{1, 3}, []int{0, 0, 1, 2})
	if b.NumLeft() != 3 || b.NumRight() != 3 || !b.HasEdge(2, 1) || b.HasEdge(1, 2) || b.HasEdge(0, 0) {
		t.Fatal("BitsetFromDAG misread its rows")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("offsets past the rows must panic")
		}
	}()
	BitsetFromDAG(3, []uint64{1}, []int{0, 0, 1, 2})
}
