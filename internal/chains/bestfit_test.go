package chains

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"monoclass/internal/dataset"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/matching"
)

// randomInfPoints draws n points in d dimensions on a 0..5 grid, so
// duplicates are common, with about one coordinate in six replaced by
// +Inf or −Inf; at d ≥ 2 some points hold both.
func randomInfPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for k := range p {
			switch r := rng.Intn(12); {
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

// bestFitReference is greedySeedBitset's definition, spelled out over
// input indices with scalar dominance tests: in SumLexOrder, each point
// attaches above the open chain top it has a DAG edge to that came
// latest.
func bestFitReference(pts []geom.Point) []int {
	seedL := make([]int, len(pts))
	var open []int // chain tops, in processing order
	for _, idx := range domgraph.SumLexOrder(pts) {
		seedL[idx] = -1
		for k := len(open) - 1; k >= 0; k-- {
			if domgraph.DominanceEdge(pts, idx, open[k]) {
				seedL[idx] = open[k]
				open = slices.Delete(open, k, k+1)
				break
			}
		}
		open = append(open, idx)
	}
	return seedL
}

// TestGreedySeedBestFit: the triangle's backward word scan picks the
// reference's top on planted low-width sets and on wide random grids
// with duplicates and ±Inf.
func TestGreedySeedBestFit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		var pts []geom.Point
		if trial%2 == 0 {
			pts, _ = plantedWidth(rng, 1+rng.Intn(6), 20+rng.Intn(80), 3)
		} else {
			pts = randomInfPoints(rng, 1+rng.Intn(300), 2+rng.Intn(3))
		}
		m := domgraph.Build(pts)
		order := m.Order()
		got := make([]int, len(pts))
		for p, q := range greedySeedBitset(m) {
			got[order[p]] = -1
			if q >= 0 {
				got[order[p]] = int(order[q])
			}
		}
		if want := bestFitReference(pts); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): best-fit seed diverges from its reference", trial, len(pts))
		}
	}
}

// TestDAGRulesScanFewerRows guards the matcher's closure rules where
// they pay, on a planted noisy d=3 set warm-started from the
// production seed: the DAG graph returns the generic graph's matching
// and stats while scanning at most 0.65× its rows (0.53–0.55× when
// the rules were written).
func TestDAGRulesScanFewerRows(t *testing.T) {
	const n = 2048
	lps := dataset.Planted(rand.New(rand.NewSource(1)), dataset.PlantedParams{N: n, D: 3, Noise: 0.1})
	pts := make([]geom.Point, n)
	for i, lp := range lps {
		pts[i] = lp.P
	}
	m := domgraph.Build(pts)
	seed := greedySeedBitset(m)
	rows, off := m.DAGRows()
	mg, sg := matching.MaxMatchingBitsetWarm(matching.BitsetFromRows(n, n, rows, off), seed)
	md, sd := matching.MaxMatchingBitsetWarm(matching.BitsetFromDAG(n, rows, off), seed)
	if !reflect.DeepEqual(mg, md) {
		t.Fatal("DAG matching diverges from the generic one")
	}
	if sd.Augmentations == 0 {
		t.Fatalf("the seed needed no augmentations (%+v); the guard measures nothing", sd)
	}
	dagScans := sd.RowScans
	if sd.RowScans = sg.RowScans; sd != sg {
		t.Fatalf("stats diverge: DAG %+v, generic %+v", sd, sg)
	}
	ratio := float64(dagScans) / float64(sg.RowScans)
	t.Logf("row scans: DAG %d, generic %d (%.2f×); %d augmentations in %d phases", dagScans, sg.RowScans, ratio, sd.Augmentations, sd.Phases)
	if ratio > 0.65 {
		t.Fatalf("DAG path scanned %.2f× the generic path's rows, want ≤ 0.65×", ratio)
	}
}
