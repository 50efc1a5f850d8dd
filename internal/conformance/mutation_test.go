//go:build conformance_mutation

package conformance

import (
	"fmt"
	"math"
	"testing"

	"monoclass/internal/domgraph"
	"monoclass/internal/maxflow"
)

// Mutation self-test: the harness is only trustworthy if it actually
// fires on a broken solver. This file (built with -tags
// conformance_mutation, wired as `make conformance-mutate`) runs a
// deliberately miscompiled solver copy through the engine's detect →
// shrink → persist → replay path and asserts every stage works.

// mutantMaxflow is an Edmonds–Karp solver over the conformance edge
// list with an injected off-by-one: the BFS treats a residual capacity
// as traversable only when it exceeds 1 instead of 0, so augmenting
// paths through unit-capacity edges are never found and the reported
// value undershoots.
func mutantMaxflow(tn *testNetwork) float64 {
	nv := tn.g.NumVertices()
	type arc struct {
		to  int
		cap float64
		rev int
	}
	adj := make([][]arc, nv)
	add := func(u, v int, c float64) {
		adj[u] = append(adj[u], arc{to: v, cap: c, rev: len(adj[v])})
		adj[v] = append(adj[v], arc{to: u, cap: 0, rev: len(adj[u]) - 1})
	}
	for _, e := range tn.edges {
		add(e.u, e.v, e.cap)
	}
	source, sink := 0, 1
	total := 0.0
	for {
		prevV := make([]int, nv)
		prevA := make([]int, nv)
		for i := range prevV {
			prevV[i] = -1
		}
		prevV[source] = source
		queue := []int{source}
		for len(queue) > 0 && prevV[sink] < 0 {
			u := queue[0]
			queue = queue[1:]
			for ai, a := range adj[u] {
				// BUG (off-by-one): must be a.cap > 0.
				if prevV[a.to] < 0 && a.cap > 1 {
					prevV[a.to] = u
					prevA[a.to] = ai
					queue = append(queue, a.to)
				}
			}
		}
		if prevV[sink] < 0 {
			return total
		}
		bottleneck := math.Inf(1)
		for v := sink; v != source; v = prevV[v] {
			if c := adj[prevV[v]][prevA[v]].cap; c < bottleneck {
				bottleneck = c
			}
		}
		for v := sink; v != source; v = prevV[v] {
			a := &adj[prevV[v]][prevA[v]]
			a.cap -= bottleneck
			adj[v][a.rev].cap += bottleneck
		}
		total += bottleneck
	}
}

// mutantCheck is the differential check the engine would run if the
// mutant were wired in as a solver: its value must match Dinic on the
// instance's passive network.
func mutantCheck(in Instance) error {
	tn := passiveNetwork(in)
	if tn == nil {
		return nil
	}
	want := maxflow.Dinic(tn.g.Clone())
	if want.IsInfinite() {
		return nil
	}
	got := mutantMaxflow(tn)
	if !almostEq(got, want.Value) {
		return fmt.Errorf("mutant maxflow = %g, dinic = %g", got, want.Value)
	}
	return nil
}

// TestMutationMaxflowDetected drives the full pipeline against the
// mutant: the workload schedule must expose it, the shrinker must
// minimize the witness without losing it, and the persisted repro must
// still reproduce after a JSON round trip.
func TestMutationMaxflowDetected(t *testing.T) {
	const maxTrials = 200
	found := -1
	var witness Instance
	for trial := 0; trial < maxTrials; trial++ {
		in := GenerateWorkload(1, trial, false)
		if Safe(mutantCheck, in) != nil {
			found, witness = trial, in
			break
		}
	}
	if found < 0 {
		t.Fatalf("injected off-by-one survived %d trials undetected", maxTrials)
	}
	t.Logf("mutant detected on trial %d (family %s, n=%d)", found, witness.Family, witness.N())

	shrunk := Shrink(witness, mutantCheck)
	err := Safe(mutantCheck, shrunk)
	if err == nil {
		t.Fatal("shrinking lost the mutant divergence")
	}
	if shrunk.N() > witness.N() {
		t.Errorf("shrink grew the instance: %d -> %d", witness.N(), shrunk.N())
	}
	t.Logf("shrunk witness: n=%d, d=%d: %v", shrunk.N(), shrunk.Dim(), err)

	shrunk.Check = "maxflow-differential"
	shrunk.Note = err.Error()
	path, werr := WriteRepro(t.TempDir(), shrunk)
	if werr != nil {
		t.Fatal(werr)
	}
	loaded, lerr := LoadRepro(path)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if Safe(mutantCheck, loaded) == nil {
		t.Error("persisted repro no longer reproduces the mutant divergence")
	}
	// The healthy solvers must pass the same witness: the divergence
	// indicts the mutant, not the instance.
	if err := Safe(CheckMaxflowDifferential, loaded); err != nil {
		t.Errorf("healthy solvers fail the shrunk witness: %v", err)
	}
}

// TestMutationDomgraphBitFlip flips a single bit of a built dominance
// matrix's triangle and asserts the differ the kernel comparison rests
// on reports it.
func TestMutationDomgraphBitFlip(t *testing.T) {
	in := GenerateWorkload(1, 9, false)
	if in.N() < 2 {
		t.Fatalf("workload too small: n=%d", in.N())
	}
	a := domgraph.Build(in.Pts())
	b := domgraph.Build(in.Pts())
	rows, off := b.DAGRows()
	rows[off[1]] ^= 1 // flip the DAG bit from position 1 to position 0
	if msg := domgraph.Diff(a, b); msg == "" {
		t.Error("single flipped triangle bit went undetected")
	} else {
		t.Logf("differ reported: %s", msg)
	}
}
