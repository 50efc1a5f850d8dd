package maxflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomNetwork draws a small random instance.
func randomNetwork(rng *rand.Rand) *Network {
	n := 3 + rng.Intn(8)
	g := New(n, 0, n-1)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < 0.35 {
				g.AddEdge(u, v, float64(1+rng.Intn(12)))
			}
		}
	}
	return g
}

// Property (testing/quick): max-flow min-cut duality — the flow value
// equals the extracted cut-edge-set weight, and the push-relabel
// engine agrees with Dinic on the same instance.
func TestQuickMaxFlowMinCutDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	property := func() bool {
		g := randomNetwork(rng)
		r := Dinic(g.Clone())
		if math.Abs(r.Value-r.CutWeight()) > 1e-9 {
			return false
		}
		return math.Abs(PushRelabelHL(g.Clone()).Value-r.Value) <= 1e-9
	}
	if err := quick.Check(func() bool { return property() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): adding an edge never decreases the max
// flow (capacity monotonicity).
func TestQuickMaxFlowMonotoneInEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	property := func() bool {
		g := randomNetwork(rng)
		before := Dinic(g.Clone()).Value
		u := rng.Intn(g.NumVertices())
		v := rng.Intn(g.NumVertices())
		if u == v || u == g.Sink() || v == g.Source() {
			return true
		}
		g.AddEdge(u, v, float64(1+rng.Intn(10)))
		after := Dinic(g).Value
		return after >= before-1e-9
	}
	if err := quick.Check(func() bool { return property() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): scaling every capacity by c > 0 scales the
// max flow by exactly c.
func TestQuickMaxFlowCapacityScalingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	property := func() bool {
		n := 3 + rng.Intn(8)
		c := 1 + rng.Float64()*9
		g1 := New(n, 0, n-1)
		g2 := New(n, 0, n-1)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.35 {
					w := float64(1 + rng.Intn(12))
					g1.AddEdge(u, v, w)
					g2.AddEdge(u, v, w*c)
				}
			}
		}
		v1 := Dinic(g1).Value
		v2 := Dinic(g2).Value
		return math.Abs(v2-v1*c) < 1e-6
	}
	if err := quick.Check(func() bool { return property() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
