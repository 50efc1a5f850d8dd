package geom

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Dataset is an immutable-by-convention collection of unlabeled points
// sharing one dimensionality. It is the unlabeled input P of Problem 1
// before any probing has happened.
type Dataset struct {
	pts []Point
	dim int
}

// NewDataset builds a Dataset from pts. All points must share the same
// dimensionality, which must be at least 1; otherwise an error is
// returned. The slice is retained, not copied.
func NewDataset(pts []Point) (*Dataset, error) {
	if len(pts) == 0 {
		return &Dataset{pts: nil, dim: 0}, nil
	}
	d := len(pts[0])
	if d == 0 {
		return nil, fmt.Errorf("geom: zero-dimensional point at index 0")
	}
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("geom: point %d has dimension %d, want %d", i, len(p), d)
		}
	}
	return &Dataset{pts: pts, dim: d}, nil
}

// MustDataset is NewDataset that panics on error; intended for tests
// and fixtures with known-good data.
func MustDataset(pts []Point) *Dataset {
	ds, err := NewDataset(pts)
	if err != nil {
		panic(err)
	}
	return ds
}

// Len returns the number of points n = |P|.
func (d *Dataset) Len() int { return len(d.pts) }

// Dim returns the dimensionality of the points (0 for an empty set).
func (d *Dataset) Dim() int { return d.dim }

// Point returns the i-th point. The returned slice must not be
// modified.
func (d *Dataset) Point(i int) Point { return d.pts[i] }

// Points returns the backing slice. The caller must not modify it.
func (d *Dataset) Points() []Point { return d.pts }

// LabeledDataset is a fully labeled point set: the input of Problem 2
// with unit weights, or the ground truth behind an oracle in Problem 1.
type LabeledDataset struct {
	Points []LabeledPoint
}

// NewLabeledDataset validates dimensional consistency and label
// validity of pts and wraps them.
func NewLabeledDataset(pts []LabeledPoint) (*LabeledDataset, error) {
	if len(pts) > 0 {
		d := len(pts[0].P)
		if d == 0 {
			return nil, fmt.Errorf("geom: zero-dimensional point at index 0")
		}
		for i, p := range pts {
			if len(p.P) != d {
				return nil, fmt.Errorf("geom: point %d has dimension %d, want %d", i, len(p.P), d)
			}
			if !p.Label.Valid() {
				return nil, fmt.Errorf("geom: point %d has invalid label %d", i, p.Label)
			}
		}
	}
	return &LabeledDataset{Points: pts}, nil
}

// Len returns the number of points.
func (d *LabeledDataset) Len() int { return len(d.Points) }

// Dim returns the dimensionality (0 for an empty set).
func (d *LabeledDataset) Dim() int {
	if len(d.Points) == 0 {
		return 0
	}
	return len(d.Points[0].P)
}

// Unlabeled strips the labels, producing the Dataset visible to an
// active-learning algorithm before probing.
func (d *LabeledDataset) Unlabeled() *Dataset {
	pts := make([]Point, len(d.Points))
	for i, lp := range d.Points {
		pts[i] = lp.P
	}
	return MustDataset(pts)
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

// SortLex sorts the set lexicographically by coordinates then label;
// useful for deterministic output and testing.
func (ws WeightedSet) SortLex() {
	sort.Slice(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		for k := range a.P {
			if a.P[k] != b.P[k] {
				return a.P[k] < b.P[k]
			}
		}
		return a.Label < b.Label
	})
}
