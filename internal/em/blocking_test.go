package em

import (
	"math/rand"
	"testing"
)

func TestBlockPairsBasics(t *testing.T) {
	recs := []Record{
		{EntityID: 0, Title: "ultra wireless speaker", Brand: "acme", Price: 10},
		{EntityID: 0, Title: "ultra wireless speakr", Brand: "acme", Price: 10}, // typo duplicate
		{EntityID: 1, Title: "carbon steel kettle", Brand: "globex", Price: 40},
	}
	pairs, err := BlockPairs(recs, BlockingParams{QGram: 3, UseTokens: true, MinSharedKeys: 2})
	if err != nil {
		t.Fatal(err)
	}
	foundDup := false
	for _, pr := range pairs {
		if pr.A == 0 && pr.B == 1 {
			foundDup = true
			if !pr.Match {
				t.Error("duplicate pair mislabeled")
			}
		}
		if pr.A >= pr.B {
			t.Error("pairs must be ordered A < B")
		}
	}
	if !foundDup {
		t.Error("blocker missed the near-duplicate pair")
	}
}

func TestBlockPairsValidation(t *testing.T) {
	recs := []Record{{Title: "a"}}
	if _, err := BlockPairs(recs, BlockingParams{QGram: 3, MinSharedKeys: 0}); err == nil {
		t.Error("MinSharedKeys 0 accepted")
	}
	if _, err := BlockPairs(recs, BlockingParams{MinSharedKeys: 1}); err == nil {
		t.Error("no key sources accepted")
	}
}

func TestBlockPairsStopKeySuppression(t *testing.T) {
	// Every record shares the token "common"; without stop-key
	// suppression that alone would pair everything.
	var recs []Record
	for i := 0; i < 30; i++ {
		recs = append(recs, Record{
			EntityID: i,
			Title:    "common",
			Brand:    "acme",
			Price:    1,
		})
	}
	all, err := BlockPairs(recs, BlockingParams{UseTokens: true, MinSharedKeys: 1})
	if err != nil {
		t.Fatal(err)
	}
	suppressed, err := BlockPairs(recs, BlockingParams{UseTokens: true, MinSharedKeys: 1, MaxKeyFrequency: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 30*29/2 {
		t.Errorf("unsuppressed candidates = %d, want all pairs", len(all))
	}
	if len(suppressed) != 0 {
		t.Errorf("suppressed candidates = %d, want 0", len(suppressed))
	}
}

func TestBlockPairsOnCorpusRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := GenerateCorpus(rng, CorpusParams{
		Entities:         300,
		RecordsPerEntity: 2,
		TitleTokens:      5,
		TypoRate:         0.15,
		TokenDropRate:    0.1,
		PriceJitter:      0.05,
	})
	pairs, err := BlockPairs(recs, DefaultBlockingParams(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	q := EvaluateBlocking(recs, pairs)
	if q.TruePairs != 300 {
		t.Fatalf("TruePairs = %d, want 300", q.TruePairs)
	}
	// Mild perturbations: token/q-gram blocking should catch nearly
	// every duplicate while proposing far fewer than all O(N²) pairs.
	if q.Recall < 0.95 {
		t.Errorf("blocking recall %.3f too low", q.Recall)
	}
	allPairs := len(recs) * (len(recs) - 1) / 2
	if q.Candidates >= allPairs/4 {
		t.Errorf("blocking kept %d of %d pairs: not selective", q.Candidates, allPairs)
	}
}

func TestBlockPairsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	recs := GenerateCorpus(rng, DefaultCorpusParams())
	a, err := BlockPairs(recs, DefaultBlockingParams(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BlockPairs(recs, DefaultBlockingParams(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("non-deterministic candidate count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic candidate order")
		}
	}
}

func TestEvaluateBlockingDegenerate(t *testing.T) {
	q := EvaluateBlocking(nil, nil)
	if q.Recall != 1 || q.PairRatio != 0 {
		t.Errorf("degenerate quality wrong: %+v", q)
	}
}
