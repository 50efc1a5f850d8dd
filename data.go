package monoclass

import (
	"io"
	"math/rand"

	"monoclass/internal/dataset"
	"monoclass/internal/em"
)

// Synthetic dataset generators, re-exported for examples, the CLI
// tools and downstream experimentation.

// PlantedParams configures GeneratePlanted.
type PlantedParams = dataset.PlantedParams

// GeneratePlanted samples N points uniform in [0,1]^D labeled by the
// monotone rule Σx > D/2, then flips labels with probability Noise.
func GeneratePlanted(rng *rand.Rand, p PlantedParams) []LabeledPoint {
	return dataset.Planted(rng, p)
}

// WidthParams configures GenerateWidthControlled.
type WidthParams = dataset.WidthParams

// GenerateWidthControlled builds a 2-D set with dominance width
// exactly W: W mutually incomparable chains with per-chain threshold
// labels plus noise.
func GenerateWidthControlled(rng *rand.Rand, p WidthParams) []LabeledPoint {
	return dataset.WidthControlled(rng, p)
}

// GenerateUniform1D samples n points uniform in [0,1] labeled positive
// above tau, flipped with probability noise.
func GenerateUniform1D(rng *rand.Rand, n int, tau, noise float64) []LabeledPoint {
	return dataset.Uniform1D(rng, n, tau, noise)
}

// Figure1 returns the paper's Figure 1(a) worked example: 16 labeled
// 2-D points with optimal error 3 and dominance width 6.
func Figure1() []LabeledPoint { return dataset.Figure1() }

// Figure1Weighted returns the Figure 1(b) weighted variant (optimal
// weighted error 104).
func Figure1Weighted() WeightedSet { return dataset.Figure1Weighted() }

// ReadCSV parses "x1,...,xd,label,weight" rows into a weighted set.
func ReadCSV(r io.Reader) (WeightedSet, error) { return dataset.ReadCSV(r) }

// WriteCSV writes a weighted set as "x1,...,xd,label,weight" rows.
func WriteCSV(w io.Writer, ws WeightedSet) error { return dataset.WriteCSV(w, ws) }

// Entity-matching simulation (the paper's motivating application; see
// DESIGN.md §2.3 for why real corpora are substituted).

// Record is a product-style record in the synthetic entity-matching
// corpus.
type Record = em.Record

// CorpusParams configures GenerateCorpus.
type CorpusParams = em.CorpusParams

// DefaultCorpusParams returns a moderately noisy corpus configuration.
func DefaultCorpusParams() CorpusParams { return em.DefaultCorpusParams() }

// GenerateCorpus produces synthetic records: per entity one clean
// prototype plus noisy duplicates (typos, token drops, price jitter).
func GenerateCorpus(rng *rand.Rand, p CorpusParams) []Record { return em.GenerateCorpus(rng, p) }

// RecordPair is a candidate pair with its ground-truth match label.
type RecordPair = em.Pair

// PairParams configures SampleRecordPairs.
type PairParams = em.PairParams

// SampleRecordPairs draws labeled match/non-match record pairs.
func SampleRecordPairs(rng *rand.Rand, recs []Record, p PairParams) []RecordPair {
	return em.SamplePairs(rng, recs, p)
}

// PairSimilarities computes the 4 similarity scores of a record pair
// (q-gram Jaccard, normalized Levenshtein, token cosine, price
// proximity), each in [0,1] with higher = more similar.
func PairSimilarities(a, b Record) Point { return em.Similarities(a, b) }

// PairsToPoints maps candidate pairs to the labeled similarity points
// of Section 1.1 of the paper.
func PairsToPoints(recs []Record, pairs []RecordPair) []LabeledPoint {
	return em.ToPoints(recs, pairs)
}

// BlockingParams configures BlockPairs.
type BlockingParams = em.BlockingParams

// DefaultBlockingParams returns the standard blocking configuration
// for a corpus of the given size.
func DefaultBlockingParams(corpusSize int) BlockingParams {
	return em.DefaultBlockingParams(corpusSize)
}

// BlockPairs proposes candidate record pairs via an inverted index on
// token, token-pair and q-gram keys — the cheap pre-scoring stage a
// real entity-resolution pipeline uses instead of all O(N²) pairs.
func BlockPairs(recs []Record, p BlockingParams) ([]RecordPair, error) {
	return em.BlockPairs(recs, p)
}

// BlockingQuality reports a candidate set's recall and workload.
type BlockingQuality = em.BlockingQuality

// EvaluateBlocking measures candidates against the corpus ground
// truth.
func EvaluateBlocking(recs []Record, pairs []RecordPair) BlockingQuality {
	return em.EvaluateBlocking(recs, pairs)
}
