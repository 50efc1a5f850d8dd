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

// TestDAGRulesMatchGeneric: over the dominance DAG rows of random point
// sets (d=1–4, n ≤ 130, duplicates, ±Inf), a BitsetFromDAG graph and a
// BitsetFromRows graph over the same rows and seed return the same
// Matching, the same stats bar RowScans, and the same König cover. The
// closure rules may only lower RowScans, and over the trials they must
// lower it somewhere, or they never fired.
func TestDAGRulesMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	saved := 0
	for trial := 0; trial < 300; trial++ {
		d := 1 + trial%4
		n := 1 + rng.Intn(130)
		rows := domgraph.Build(randomDAGPoints(rng, n, d)).DAGBits()
		gen := BitsetFromRows(n, n, rows)
		dag := BitsetFromDAG(n, rows)
		for _, seed := range [][]int{nil, greedySeed(gen)} {
			mg, sg := MaxMatchingBitsetWarm(gen, seed)
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
			if !reflect.DeepEqual(cgL, cdL) || !reflect.DeepEqual(cgR, cdR) {
				t.Fatalf("trial %d: König covers diverge", trial)
			}
		}
	}
	if saved == 0 {
		t.Fatal("the closure rules skipped no row in any trial")
	}
}

// TestBitsetFromDAGValidates: BitsetFromDAG checks the row length like
// BitsetFromRows, and the graph is square.
func TestBitsetFromDAGValidates(t *testing.T) {
	b := BitsetFromDAG(3, []uint64{0, 1, 3})
	if b.NumLeft() != 3 || b.NumRight() != 3 || !b.HasEdge(2, 1) || b.HasEdge(1, 2) {
		t.Fatal("BitsetFromDAG misread its rows")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length rows must panic")
		}
	}()
	BitsetFromDAG(3, []uint64{0, 1})
}
