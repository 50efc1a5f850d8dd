package problem

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/dataset"
	"monoclass/internal/geom"
)

// TestPrepareStatsPaths pins which DecomposePath each Prepare route
// records, that the dense path's seed counters match its cover and
// its certificate, and that stage timings are populated.
func TestPrepareStatsPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(17))

	t.Run("fast-2d", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 40, 2), Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.DecomposePath != chains.PathFast2D || !st.ExactWidth {
			t.Fatalf("stats %+v", st)
		}
	})

	t.Run("seed-dense", func(t *testing.T) {
		for _, ws := range []geom.WeightedSet{randomSet(rng, 60, 3), certifiedSet(rng, 60, true)} {
			p, err := Prepare(ws, Options{})
			if err != nil {
				t.Fatal(err)
			}
			st := p.Stats()
			if st.DecomposePath != chains.PathSeedDense || st.ExactWidth != st.CertEarlyExit || st.ExactWidth != p.ExactWidth() {
				t.Fatalf("stats %+v", st)
			}
			if st.Width != p.Width() || st.Mode != "dense" || st.N != 60 || st.Dim != 3 {
				t.Fatalf("stats %+v disagree with problem (width %d)", st, p.Width())
			}
			if st.Contending != p.NumContending() || st.Edges != p.NumEdges() || st.Edges == 0 {
				t.Fatalf("stats %+v disagree with the network (%d contending, %d edges)", st, p.NumContending(), p.NumEdges())
			}
			// The seed route runs no matching: the cover is the seed.
			if st.Width != st.SeedChains || st.Augmentations != 0 {
				t.Fatalf("seed route reported matching work: %+v", st)
			}
			if w := chains.Width(p.Points()); st.Width < w || st.ExactWidth && st.Width != w {
				t.Fatalf("seed cover of %d chains (exact %v), dominance width %d", st.Width, st.ExactWidth, w)
			}
			if st.TotalNS <= 0 || st.TotalNS < st.NetworkNS {
				t.Fatalf("timing stats %+v", st)
			}
		}
	})

	t.Run("greedy-fallback", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 50, 3), Options{ExactDecomposeLimit: 10})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.DecomposePath != chains.PathGreedyFallback || st.ExactWidth || p.ExactWidth() {
			t.Fatalf("stats %+v exact %v", st, p.ExactWidth())
		}
		if st.SeedChains != 0 || st.Augmentations != 0 {
			t.Fatalf("greedy fallback reported matching work: %+v", st)
		}
	})

	t.Run("loaded", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 30, 3), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		st := q.Stats()
		if st.DecomposePath != PathLoaded {
			t.Fatalf("stats %+v", st)
		}
		if st.TotalNS != 0 {
			t.Fatalf("loaded problem claims prepare timing: %+v", st)
		}
		if st.Width != p.Width() || st.ExactWidth != p.ExactWidth() {
			t.Fatalf("loaded stats %+v disagree with source (width %d exact %v)", st, p.Width(), p.ExactWidth())
		}
		if src := p.Stats(); st.Contending != src.Contending || st.Edges != src.Edges {
			t.Fatalf("loaded stats %+v lost the network size of %+v", st, src)
		}
	})
}

// TestPrepareWarmStartSmoke is the CI quick-smoke for both halves of
// the dense route at n = 512, d = 3: Prepare's seed cover, solved end
// to end against the literal construction, and the warm-started
// matching chains.DecomposeRoute runs on top of the same seed, whose
// minimum cover must solve to the same optimum. make ci-smoke runs it
// under -race.
func TestPrepareWarmStartSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ws := randomSet(rng, 512, 3)
	p, err := Prepare(ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.DecomposePath != chains.PathSeedDense || st.Augmentations != 0 || st.Width != st.SeedChains {
		t.Fatalf("smoke prepare: %+v", st)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	literal, contending := literalSolve(t, ws)
	if !almostEq(sol.WErr, literal.WErr) {
		t.Fatalf("prepared WErr %v != literal construction %v", sol.WErr, literal.WErr)
	}
	if !reflect.DeepEqual(p.Contending(), contending) {
		t.Fatal("prepared contending set diverges from the literal construction")
	}

	r := chains.DecomposeRoute(p.Points(), 0)
	rs := r.Stats
	if r.Path != chains.PathExactDense || !r.Exact() || rs.SeedChains != st.SeedChains || rs.Width != r.Width {
		t.Fatalf("smoke decomposition took path %q (exact %v), stats %+v, seed route %+v", r.Path, r.Exact(), rs, st)
	}
	if rs.CertEarlyExit || rs.Augmentations == 0 || rs.Augmentations != rs.SeedChains-rs.Width {
		t.Fatalf("warm-start accounting broken or no matching ran: %+v", rs)
	}
	minimum, err := PrepareCover(p.WeightedSet(), r.Decomposition, true)
	if err != nil {
		t.Fatal(err)
	}
	msol, err := minimum.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(msol.WErr, sol.WErr) {
		t.Fatalf("minimum cover's WErr %v != seed cover's %v", msol.WErr, sol.WErr)
	}
}

// TestProblemRetainsNoMatrix: a prepared and solved dense-route Problem
// holds its points, cover and network, not the dominance matrix. On a
// planted noisy n=8192 d=3 set the live heap the Problem holds must
// stay under one full n×n bit relation (8 MiB); it holds ≈5.6 MiB, so
// keeping the 4 MiB triangle would cross the bound.
func TestProblemRetainsNoMatrix(t *testing.T) {
	const n = 8192
	lps := dataset.Planted(rand.New(rand.NewSource(1)), dataset.PlantedParams{N: n, D: 3, Noise: 0.1})
	ws := make(geom.WeightedSet, n)
	for i, lp := range lps {
		ws[i] = geom.WeightedPoint{P: lp.P, Label: lp.Label, Weight: 1}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := liveHeap()
	p, err := Prepare(ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(); err != nil {
		t.Fatal(err)
	}
	held := int64(liveHeap()) - int64(base)
	runtime.KeepAlive(p)
	if p.Mode() != ModeDense {
		t.Fatalf("prepared %v, want the dense route", p.Mode())
	}
	if limit := int64(n) * int64((n+63)/64) * 8; held >= limit { // one n×n bit relation
		t.Fatalf("Problem holds %.1f MiB, want < %.1f MiB (half the dense footprint)", float64(held)/(1<<20), float64(limit)/(1<<20))
	}
	t.Logf("Problem holds %.1f MiB", float64(held)/(1<<20))
}
