package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"monoclass"
	"monoclass/internal/online"
)

// workload is one set of inputs the benchmark runs. Every workload
// walks the same pipeline — CSV → prepared problem → trained model →
// in-process server → client traffic — so every end-to-end metric has
// a value on every workload; what differs is where the time goes.
type workload struct {
	name string
	// n and dim size the training set; gen draws labeled points from
	// the workload's distribution (training set, queries and deltas
	// all come from it).
	n, dim int
	gen    func(rng *rand.Rand, n int) monoclass.WeightedSet
	// trainShare is the fraction of the measured window spent
	// retraining from CSV; the rest is split between the single-point
	// and the client-batch serving phases. The window runs as rounds
	// rounds of all three, each round at least one train.
	trainShare float64
	rounds     int
	// churn enables online learning on the server: one connection
	// posts /learn deltas beside the single-point reads. The batch
	// phase runs after the learn stream has drained: exact re-solves
	// overlapping it made its throughput swing ±30% between runs.
	churn bool
}

// Shared traffic shape (see README.md for the reasons).
const (
	pointRatePerConn = 200.0 // single-point /classify requests per second per connection
	learnRate        = 100.0 // /learn deltas per second (serve-churn)
	batchSize        = 512   // points per /classify/batch body
	numQueries       = 4096  // distinct single-point query bodies, cycled
	numBatchBodies   = 16    // distinct batch bodies, cycled
	onlineWindow     = 4096  // live-set size of the traced run's standalone updater
	replayDeltas     = 192   // deltas replayed into it: three exact re-solves at the default RebuildEvery=64
	deleteLag        = 32    // a delete removes the insert this many inserts back
	setupRepeats     = 3     // set-ups per run; setup_s is their median
	numTrainSets     = 4     // training sets per run; the train metrics average over them
)

var workloads = []workload{
	{name: "train-noisy-d3", n: 8192, dim: 3, gen: planted(3, 0.1), trainShare: 0.7, rounds: 10},
	{name: "train-chains-d2", n: 81920, dim: 2, gen: chains16(2), trainShare: 0.7, rounds: 10},
	{name: "serve-churn", n: 4096, dim: 3, gen: planted(3, 0.1), trainShare: 0.25, rounds: 6, churn: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// planted draws GeneratePlanted points with unit weights: uniform in
// [0,1]^d, labeled by Σx > d/2, each label flipped with probability noise.
func planted(d int, noise float64) func(*rand.Rand, int) monoclass.WeightedSet {
	return func(rng *rand.Rand, n int) monoclass.WeightedSet {
		lps := monoclass.GeneratePlanted(rng, monoclass.PlantedParams{N: n, D: d, Noise: noise})
		ws := make(monoclass.WeightedSet, n)
		for i, lp := range lps {
			ws[i] = monoclass.WeightedPoint{P: lp.P, Label: lp.Label, Weight: 1}
		}
		return ws
	}
}

// chains16 is the low-noise 16-chain generator of benchtab's problem
// table: points on 16 parallel diagonals in d dimensions, labeled by a
// threshold on the diagonal parameter with labels flipped at random
// only in a band around it, so fewer than 1% of points contend. Weights
// are 1..4.
func chains16(d int) func(*rand.Rand, int) monoclass.WeightedSet {
	const w = 16
	const span, theta = 64.0, 32.0
	return func(rng *rand.Rand, n int) monoclass.WeightedSet {
		half := span * 1024.0 / float64(n) // band of ~2048 expected points
		if half > span/4 {
			half = span / 4
		}
		ws := make(monoclass.WeightedSet, n)
		for i := range ws {
			t := rng.Float64() * span
			j := rng.Intn(w)
			p := make(monoclass.Point, d)
			for k := range p {
				off := float64(j)
				if k == d-1 {
					off = float64(w - j)
				}
				p[k] = t + off
			}
			label := monoclass.Negative
			if t > theta {
				label = monoclass.Positive
			}
			if t > theta-half && t < theta+half && rng.Intn(2) == 0 {
				label = 1 - label
			}
			ws[i] = monoclass.WeightedPoint{P: p, Label: label, Weight: float64(1 + rng.Intn(4))}
		}
		return ws
	}
}

// Independent input streams derived from the run's seed, so changing
// the query count never changes a training set. Training set k draws
// from stream streamTrain+k.
const (
	streamQueries = iota + 1
	streamDeltas
	streamTrain
)

func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)))
}

// deltaTrace returns count deltas alternating fresh inserts with
// deletes of the insert deleteLag inserts earlier, so the live set
// stays within deleteLag points of its starting size.
func deltaTrace(w workload, seed int64, count int) []online.Delta {
	fresh := w.gen(rngFor(seed, streamDeltas), count)
	trace := make([]online.Delta, 0, count)
	var inserted []monoclass.WeightedPoint
	next := 0
	for len(trace) < count {
		if len(trace)%2 == 1 && len(inserted) > deleteLag {
			old := inserted[0]
			inserted = inserted[1:]
			trace = append(trace, online.Delta{Op: online.OpDelete, Point: old.P, Label: old.Label})
			continue
		}
		wp := fresh[next]
		next++
		inserted = append(inserted, wp)
		trace = append(trace, online.Delta{Op: online.OpInsert, Point: wp.P, Label: wp.Label, Weight: wp.Weight})
	}
	return trace
}

// Pre-encoded request bodies, so client-side JSON encoding stays off
// the timed path.

func pointBody(p monoclass.Point) []byte {
	b, _ := json.Marshal(struct {
		Point []float64 `json:"point"`
	}{p}) // cannot fail: finite coordinates
	return b
}

func batchBody(pts []monoclass.Point) []byte {
	coords := make([][]float64, len(pts))
	for i, p := range pts {
		coords[i] = p
	}
	b, _ := json.Marshal(struct {
		Points [][]float64 `json:"points"`
	}{coords}) // cannot fail: finite coordinates
	return b
}

func learnBody(d online.Delta) []byte {
	type wireDelta struct {
		Op     string    `json:"op"`
		Point  []float64 `json:"point"`
		Label  int       `json:"label"`
		Weight float64   `json:"weight,omitempty"`
	}
	wd := wireDelta{Op: "insert", Point: d.Point, Label: int(d.Label), Weight: d.Weight}
	if d.Op == online.OpDelete {
		wd.Op, wd.Weight = "delete", 0
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(struct {
		Deltas []wireDelta `json:"deltas"`
	}{[]wireDelta{wd}}) // cannot fail: finite coordinates
	return buf.Bytes()
}
