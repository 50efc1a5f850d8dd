// Benchmark harness: one testing.B benchmark per experiment table of
// the reproduction (F1, F2, E1–E10; see DESIGN.md §2.2), plus
// micro-benchmarks for the individual substrates. Each experiment
// benchmark regenerates its full table per iteration at reduced
// (Quick) scale; run cmd/benchtab for the full-scale tables and
// EXPERIMENTS.md for recorded results.
//
//	go test -bench=. -benchmem
package monoclass_test

import (
	"bytes"
	"math/rand"
	"testing"

	"monoclass"
	"monoclass/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	cfg := experiments.Config{Seed: 1, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced an empty table", id)
		}
	}
}

// Worked-figure checks (Figure 1 and Figure 2 of the paper).

func BenchmarkFigure1Check(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkFigure2Check(b *testing.B) { benchExperiment(b, "F2") }

// Theorem-level experiment tables.

func BenchmarkE1ProbingVsN(b *testing.B)             { benchExperiment(b, "E1") }
func BenchmarkE2ProbingVsWidth(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3ProbingVsEpsilon(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4ApproximationQuality(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5PassiveRuntime(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6LowerBoundTradeoff(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7BaselineComparison(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8ChainDecomposition(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9MaxflowSolvers(b *testing.B)         { benchExperiment(b, "E9") }
func BenchmarkE10EndToEndPhases(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11QuantizationTradeoff(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12OracleNoiseRobustness(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13RBSExpectation(b *testing.B)        { benchExperiment(b, "E13") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkA1ChainAblation(b *testing.B) { benchExperiment(b, "A1") }

// Substrate micro-benchmarks.

func benchData(n, w int, noise float64) ([]monoclass.LabeledPoint, []monoclass.Point) {
	rng := rand.New(rand.NewSource(99))
	lab := monoclass.GenerateWidthControlled(rng, monoclass.WidthParams{N: n, W: w, Noise: noise})
	pts := make([]monoclass.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}
	return lab, pts
}

func BenchmarkPassiveSolve2000(b *testing.B) {
	lab, _ := benchData(2000, 8, 0.1)
	ws := make(monoclass.WeightedSet, len(lab))
	for i, lp := range lab {
		ws[i] = monoclass.WeightedPoint{P: lp.P, Label: lp.Label, Weight: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := monoclass.OptimalPassive(ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkActiveLearn20000(b *testing.B) {
	lab, pts := benchData(20000, 4, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		o := monoclass.InstrumentLabeled(lab)
		if _, err := monoclass.ActiveLearn(pts, o, monoclass.PracticalParams(0.5, 0.05), rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainDecompose2D50000(b *testing.B) {
	_, pts := benchData(50000, 16, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := monoclass.ChainDecompose(pts)
		if dec.Width != 16 {
			b.Fatalf("width %d", dec.Width)
		}
	}
}

// chains16CSV encodes n points of the 16-chain d=2 workload as CSV:
// points on 16 parallel diagonals, labeled by a threshold on the
// diagonal parameter with coin flips in a band of ≈2,048 expected
// points around it, weights 1–4 — the shape of benchtab's problem
// table and of perfbench's train-chains-d2 sets.
func chains16CSV(b *testing.B, n int) []byte {
	const w, span, theta = 16, 64.0, 32.0
	rng := rand.New(rand.NewSource(5))
	half := min(span*1024/float64(n), span/4)
	ws := make(monoclass.WeightedSet, n)
	for i := range ws {
		t, j := rng.Float64()*span, float64(rng.Intn(w))
		label := monoclass.Negative
		if t > theta {
			label = monoclass.Positive
		}
		if t > theta-half && t < theta+half && rng.Intn(2) == 0 {
			label = 1 - label
		}
		ws[i] = monoclass.WeightedPoint{P: monoclass.Point{t + j, t + w - j}, Label: label, Weight: float64(1 + rng.Intn(4))}
	}
	var buf bytes.Buffer
	if err := monoclass.WriteCSV(&buf, ws); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadCSV parses an n=81,920 d=2 set from CSV bytes.
func BenchmarkReadCSV(b *testing.B) {
	csv := chains16CSV(b, 81920)
	b.ReportAllocs()
	b.SetBytes(int64(len(csv)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := monoclass.ReadCSV(bytes.NewReader(csv)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainCSV2D is one d=2 train from CSV bytes, n=81,920:
// ReadCSV, PrepareProblem (rank arrays, patience pass, network) and
// TrainPrepared (the first max-flow solve).
func BenchmarkTrainCSV2D(b *testing.B) {
	csv := chains16CSV(b, 81920)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws, err := monoclass.ReadCSV(bytes.NewReader(csv))
		if err != nil {
			b.Fatal(err)
		}
		p, err := monoclass.PrepareProblem(ws, monoclass.ProblemOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := monoclass.TrainPrepared(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDominanceWidth100000(b *testing.B) {
	_, pts := benchData(100000, 32, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := monoclass.DominanceWidth(pts); w != 32 {
			b.Fatalf("width %d", w)
		}
	}
}

func BenchmarkBestThreshold1D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	lab := monoclass.GenerateUniform1D(rng, 100000, 0.5, 0.1)
	ws := make(monoclass.WeightedSet, len(lab))
	for i, lp := range lab {
		ws[i] = monoclass.WeightedPoint{P: lp.P, Label: lp.Label, Weight: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		monoclass.BestThreshold1D(ws)
	}
}

func BenchmarkStreamingThresholdInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := monoclass.NewStreamingThreshold(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(rng.Float64(), monoclass.Label(i&1), 1)
		if i%1024 == 0 {
			s.Best()
		}
	}
}

func BenchmarkQuantizeUniform(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]monoclass.Point, 50000)
	for i := range pts {
		pts[i] = monoclass.Point{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		monoclass.QuantizeUniform(pts, 5)
	}
}

func BenchmarkClassifyBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	anchors := make([]monoclass.Point, 20)
	for i := range anchors {
		anchors[i] = monoclass.Point{rng.Float64(), rng.Float64()}
	}
	h, err := monoclass.NewAnchorSet(2, anchors)
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]monoclass.Point, 100000)
	for i := range pts {
		pts[i] = monoclass.Point{rng.Float64(), rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		monoclass.ClassifyBatch(h, pts)
	}
}

func BenchmarkBlocking(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	recs := monoclass.GenerateCorpus(rng, monoclass.CorpusParams{
		Entities: 2000, RecordsPerEntity: 2, TitleTokens: 4,
		TypoRate: 0.2, TokenDropRate: 0.1, PriceJitter: 0.1,
	})
	p := monoclass.DefaultBlockingParams(len(recs))
	p.MinSharedKeys = 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := monoclass.BlockPairs(recs, p); err != nil {
			b.Fatal(err)
		}
	}
}
