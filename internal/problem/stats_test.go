package problem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// TestPrepareStatsPaths pins which DecomposePath each Prepare route
// records, that exact paths carry warm-start counters consistent with
// the width, and that stage timings are populated.
func TestPrepareStatsPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(17))

	t.Run("fast-2d", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 40, 2), Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.DecomposePath != PathFast2D || !st.ExactWidth {
			t.Fatalf("stats %+v", st)
		}
	})

	t.Run("exact-dense", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 60, 3), Options{Mode: ModeDense})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.DecomposePath != PathExactDense || !st.ExactWidth {
			t.Fatalf("stats %+v", st)
		}
		if st.Width != p.Width() || st.Mode != "dense" || st.N != 60 || st.Dim != 3 {
			t.Fatalf("stats %+v disagree with problem (width %d)", st, p.Width())
		}
		if st.Contending != p.NumContending() || st.Edges != p.NumEdges() || st.Edges == 0 {
			t.Fatalf("stats %+v disagree with the network (%d contending, %d edges)", st, p.NumContending(), p.NumEdges())
		}
		if !st.CertEarlyExit && st.Augmentations != st.SeedChains-st.Width {
			t.Fatalf("augmentations %d != seed %d - width %d", st.Augmentations, st.SeedChains, st.Width)
		}
		if st.TotalNS <= 0 || st.TotalNS < st.NetworkNS {
			t.Fatalf("timing stats %+v", st)
		}
	})

	t.Run("exact-transient", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 50, 3), Options{Mode: ModeBlocked})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.DecomposePath != PathExactTransient || !st.ExactWidth {
			t.Fatalf("stats %+v", st)
		}
		if p.Matrix() != nil {
			t.Fatal("transient matrix retained")
		}
	})

	t.Run("greedy-fallback", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 50, 3), Options{Mode: ModeBlocked, ExactDecomposeLimit: 10})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.DecomposePath != PathGreedyFallback || st.ExactWidth || p.ExactWidth() {
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

// TestRaisedExactLimitGuard: the raised DefaultExactDecomposeLimit must
// still respect the dense-footprint guard — a tiny MaxDenseBytes forces
// the greedy fallback even under the limit.
func TestRaisedExactLimitGuard(t *testing.T) {
	if DefaultExactDecomposeLimit < 65536 {
		t.Fatalf("DefaultExactDecomposeLimit = %d, want >= 65536", DefaultExactDecomposeLimit)
	}
	rng := rand.New(rand.NewSource(23))
	p, err := Prepare(randomSet(rng, 64, 3), Options{Mode: ModeBlocked, MaxDenseBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.DecomposePath != PathGreedyFallback {
		t.Fatalf("tiny guard did not force fallback: %+v", st)
	}
}

// TestPrepareWarmStartSmoke is the CI quick-smoke: one warm-started
// exact prepare on a d=3 instance big enough to run real matching
// phases, solved end to end. make ci-smoke runs it under -race.
func TestPrepareWarmStartSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ws := randomSet(rng, 512, 3)
	p, err := Prepare(ws, Options{Mode: ModeDense})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.DecomposePath != PathExactDense || !st.ExactWidth {
		t.Fatalf("smoke prepare took path %q (exact %v)", st.DecomposePath, st.ExactWidth)
	}
	if !st.CertEarlyExit && st.Augmentations != st.SeedChains-st.Width {
		t.Fatalf("warm-start accounting broken: %+v", st)
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
}
