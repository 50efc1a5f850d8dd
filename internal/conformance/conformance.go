// Package conformance is the repo's machine-checkable equivalence net:
// a seeded, self-shrinking differential + metamorphic test engine that
// cross-checks every deliberately redundant implementation pair against
// the paper's guarantees (Theorems 2–4).
//
// The redundancy it polices:
//
//   - the max-flow engine (highest-label push-relabel) against Dinic on
//     identical networks — equal value, valid cut, Lemma 18's
//     no-infinite-cut-edge invariant, flow conservation;
//   - the bit-packed dominance kernel (domgraph.Build) against its
//     scalar oracle (domgraph.BuildNaive), bit for bit;
//   - the kernel chain decomposition (chains.DecomposeMatrixStats) and
//     the route every caller takes (chains.DecomposeRoute, with its
//     1-D/2-D fast paths and greedy fallback) against the scalar
//     construction — equal width, valid partitions, valid antichain
//     certificates;
//   - the passive optimum across the sparse network (minimum and greedy
//     chain covers, every solver) and the literal Section 5.1
//     construction, against the exponential NaiveSolve on small inputs;
//   - the prepared problem against its serialization round trip,
//     whose network is rebuilt over rank arrays, bit for bit;
//   - the active pipeline in exhaustive mode against the passive
//     optimum (exact), and with sampling parameters against the (1+ε)
//     guarantee over repeated trials (statistical audit).
//
// On top sit metamorphic invariants: strictly monotone per-dimension
// coordinate transforms preserve width/optimum/violations; label-flip +
// coordinate-negation duality; point duplication scales the weighted
// error; weight scaling scales it linearly; input permutation changes
// nothing.
//
// Workloads come from every internal/dataset family plus adversarial
// and degenerate shapes (duplicates, grid ties, all-one-label,
// antichains, single chains, d = 1..6, n = 0 and 1). On divergence the
// engine greedily shrinks the failing instance (drop point chunks, drop
// dimensions, normalize weights, rank-compress coordinates) and writes
// a replay file testdata/repro-*.json that the TestReplayRepros runner
// and `benchtab -conformance` both load. See DESIGN.md §7 for the
// invariant catalog.
package conformance

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"monoclass/internal/geom"
)

// Instance is one self-contained workload: a weighted labeled point
// set plus the provenance needed to regenerate or replay it. It is the
// unit the checks consume, the shrinker minimizes, and the repro files
// serialize.
type Instance struct {
	// Family names the generator that produced the instance.
	Family string `json:"family"`
	// Seed is the per-trial seed; checks that need randomness (random
	// networks, permutations, active runs) derive their generators from
	// it, so a replayed instance exercises identical randomness.
	Seed int64 `json:"seed"`
	// Check optionally names the check that diverged; replay runs just
	// that check when set, the full suite otherwise.
	Check string `json:"check,omitempty"`
	// Note carries the human-readable divergence message.
	Note string `json:"note,omitempty"`

	Points  [][]float64 `json:"points"`
	Labels  []int       `json:"labels"`
	Weights []float64   `json:"weights"`
}

// N returns the number of points.
func (in Instance) N() int { return len(in.Points) }

// Dim returns the dimensionality (0 when empty).
func (in Instance) Dim() int {
	if len(in.Points) == 0 {
		return 0
	}
	return len(in.Points[0])
}

// Validate checks internal consistency: aligned slices, consistent
// dimensionality (at least 1 when non-empty), binary labels, positive
// finite weights. Repro files pass through it before replay.
func (in Instance) Validate() error {
	if len(in.Labels) != len(in.Points) || len(in.Weights) != len(in.Points) {
		return fmt.Errorf("conformance: %d points, %d labels, %d weights",
			len(in.Points), len(in.Labels), len(in.Weights))
	}
	for i, l := range in.Labels {
		if l != 0 && l != 1 {
			return fmt.Errorf("conformance: label %d at index %d", l, i)
		}
	}
	return in.WeightedSet().Validate()
}

// Pts converts the coordinate rows to geom points.
func (in Instance) Pts() []geom.Point {
	pts := make([]geom.Point, len(in.Points))
	for i, row := range in.Points {
		pts[i] = geom.Point(row)
	}
	return pts
}

// GeomLabels converts the labels.
func (in Instance) GeomLabels() []geom.Label {
	labels := make([]geom.Label, len(in.Labels))
	for i, l := range in.Labels {
		labels[i] = geom.Label(l)
	}
	return labels
}

// Labeled returns the instance as a labeled point set.
func (in Instance) Labeled() []geom.LabeledPoint {
	out := make([]geom.LabeledPoint, len(in.Points))
	for i := range in.Points {
		out[i] = geom.LabeledPoint{P: geom.Point(in.Points[i]), Label: geom.Label(in.Labels[i])}
	}
	return out
}

// WeightedSet returns the instance as the passive problem's input.
func (in Instance) WeightedSet() geom.WeightedSet {
	ws := make(geom.WeightedSet, len(in.Points))
	for i := range in.Points {
		ws[i] = geom.WeightedPoint{
			P:      geom.Point(in.Points[i]),
			Label:  geom.Label(in.Labels[i]),
			Weight: in.Weights[i],
		}
	}
	return ws
}

// Clone deep-copies the instance.
func (in Instance) Clone() Instance {
	cp := in
	cp.Points = make([][]float64, len(in.Points))
	for i, row := range in.Points {
		cp.Points[i] = append([]float64(nil), row...)
	}
	cp.Labels = append([]int(nil), in.Labels...)
	cp.Weights = append([]float64(nil), in.Weights...)
	return cp
}

// FromWeightedSet builds an instance from a weighted set.
func FromWeightedSet(family string, seed int64, ws geom.WeightedSet) Instance {
	in := Instance{
		Family:  family,
		Seed:    seed,
		Points:  make([][]float64, len(ws)),
		Labels:  make([]int, len(ws)),
		Weights: make([]float64, len(ws)),
	}
	for i, wp := range ws {
		in.Points[i] = append([]float64(nil), wp.P...)
		in.Labels[i] = int(wp.Label)
		in.Weights[i] = wp.Weight
	}
	return in
}

// removeRange returns a copy with points [start, start+count) removed.
func (in Instance) removeRange(start, count int) Instance {
	cp := in.Clone()
	cp.Points = append(cp.Points[:start], cp.Points[start+count:]...)
	cp.Labels = append(cp.Labels[:start], cp.Labels[start+count:]...)
	cp.Weights = append(cp.Weights[:start], cp.Weights[start+count:]...)
	return cp
}

// dropDim returns a copy with coordinate k projected out.
func (in Instance) dropDim(k int) Instance {
	cp := in.Clone()
	for i, row := range cp.Points {
		cp.Points[i] = append(row[:k], row[k+1:]...)
	}
	return cp
}

// unitWeights returns a copy with every weight set to 1.
func (in Instance) unitWeights() Instance {
	cp := in.Clone()
	for i := range cp.Weights {
		cp.Weights[i] = 1
	}
	return cp
}

// rankCoords returns a copy with every coordinate replaced by its rank
// among the distinct values of its dimension — an exactly
// order-preserving compression that makes repro files small and
// readable without changing the dominance relation.
func (in Instance) rankCoords() Instance {
	cp := in.Clone()
	d := cp.Dim()
	for k := 0; k < d; k++ {
		vals := make([]float64, 0, len(cp.Points))
		for _, row := range cp.Points {
			vals = append(vals, row[k])
		}
		sort.Float64s(vals)
		uniq := vals[:0]
		for i, v := range vals {
			if i == 0 || v != uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		for _, row := range cp.Points {
			row[k] = float64(sort.SearchFloat64s(uniq, row[k]))
		}
	}
	return cp
}

// WriteRepro serializes the instance into dir as repro-*.json and
// returns the file path. The name is a stable function of the failing
// check, family, and seed, so re-running the same divergence overwrites
// rather than accumulating duplicates.
func WriteRepro(dir string, in Instance) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	check := in.Check
	if check == "" {
		check = "all"
	}
	path := filepath.Join(dir, fmt.Sprintf("repro-%s-%s-%d.json", check, in.Family, in.Seed))
	data, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadRepro parses one repro file.
func LoadRepro(path string) (Instance, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Instance{}, err
	}
	var in Instance
	if err := json.Unmarshal(data, &in); err != nil {
		return Instance{}, fmt.Errorf("conformance: %s: %w", path, err)
	}
	if err := in.Validate(); err != nil {
		return Instance{}, fmt.Errorf("conformance: %s: %w", path, err)
	}
	return in, nil
}

// ListRepros returns the sorted repro-*.json paths under dir; a
// missing directory is an empty list, not an error.
func ListRepros(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "repro-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// Replay runs the instance's named check, or the full deterministic
// suite when no check is recorded. A nil return means the divergence
// no longer reproduces.
func Replay(in Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if in.Check != "" {
		fn := CheckByName(in.Check)
		if fn == nil {
			return fmt.Errorf("conformance: unknown check %q", in.Check)
		}
		return Safe(fn, in)
	}
	return RunAll(in)
}
