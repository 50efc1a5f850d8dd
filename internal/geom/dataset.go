package geom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// LabeledDataset is a fully labeled point set: the input of Problem 2
// with unit weights, or the ground truth behind an oracle in Problem 1.
type LabeledDataset struct {
	Points []LabeledPoint
}

// Weighted converts the set to a WeightedSet with unit weights, under
// which w-err coincides with err (Eq. (3) specializes to Eq. (1)).
func (d *LabeledDataset) Weighted() WeightedSet {
	ws := make(WeightedSet, len(d.Points))
	for i, lp := range d.Points {
		ws[i] = WeightedPoint{P: lp.P, Label: lp.Label, Weight: 1}
	}
	return ws
}

// WeightedSet is a fully-labeled weighted set: the input of Problem 2.
// Duplicate points are allowed (the active algorithm's sample Σ is a
// multiset); their weights simply both count.
type WeightedSet []WeightedPoint

// Validate checks every member with WeightedPoint.Validate (no NaN
// coordinates, binary labels, positive finite weights) and
// dimensional consistency across the set.
func (ws WeightedSet) Validate() error {
	if len(ws) == 0 {
		return nil
	}
	d := len(ws[0].P)
	if d == 0 {
		return fmt.Errorf("geom: zero-dimensional point at index 0")
	}
	for i, wp := range ws {
		if len(wp.P) != d {
			return fmt.Errorf("geom: point %d has dimension %d, want %d", i, len(wp.P), d)
		}
		if err := wp.Validate(); err != nil {
			return fmt.Errorf("geom: point %d: %w", i, err)
		}
	}
	return nil
}

// Dim returns the dimensionality (0 for an empty set).
func (ws WeightedSet) Dim() int {
	if len(ws) == 0 {
		return 0
	}
	return len(ws[0].P)
}

// TotalWeight returns the sum of all weights.
func (ws WeightedSet) TotalWeight() float64 {
	var sum float64
	for _, wp := range ws {
		sum += wp.Weight
	}
	return sum
}

// Coalesce merges duplicate (point, label) entries by summing weights,
// in order of first appearance. It leaves ws untouched and returns a
// new set, plus the entry each input merged into: ws[i] went to
// out[entry[i]]. Points merge when their coordinates have the same
// float64 bits, so −0 and +0 stay apart. Coalescing can shrink the
// max-flow instance Problem 2 builds, without changing w-err of any
// classifier.
func (ws WeightedSet) Coalesce() (out WeightedSet, entry []int) {
	idx := make(map[string]int, len(ws))
	out = make(WeightedSet, 0, len(ws))
	entry = make([]int, len(ws))
	var key []byte
	for i, wp := range ws {
		key = append(key[:0], byte(wp.Label))
		for _, x := range wp.P {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
		}
		if j, ok := idx[string(key)]; ok {
			out[j].Weight += wp.Weight
			entry[i] = j
			continue
		}
		idx[string(key)] = len(out)
		entry[i] = len(out)
		out = append(out, wp)
	}
	return out, entry
}
