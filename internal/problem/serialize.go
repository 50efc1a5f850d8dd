package problem

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"monoclass/internal/chains"
	"monoclass/internal/geom"
)

// problemFile is the on-disk JSON representation of a prepared
// Problem, versioned alongside the model format. It stores everything
// Prepare derives except the flow network (cheap to rebuild once the
// decomposition — the expensive part — is known): points, labels,
// weights, and the chain decomposition with its antichain certificate.
// Files older builds wrote may also carry a "matrix" blob of dominance
// words; Read ignores it, since it rebuilds the network from the
// points alone.
type problemFile struct {
	Format  string `json:"format"`  // always "monoclass-problem"
	Version int    `json:"version"` // currently 1
	// Mode records the writer's representation. Read ignores it, so
	// files older builds wrote ("blocked" included) load; older
	// builds require it.
	Mode       string       `json:"mode"`
	Dim        int          `json:"dim"`
	Points     [][]jsonCoor `json:"points"`
	Labels     []int        `json:"labels"`
	Weights    []float64    `json:"weights"`
	Chains     [][]int      `json:"chains"`
	Antichain  []int        `json:"antichain,omitempty"`
	Width      int          `json:"width"`
	ExactWidth bool         `json:"exact_width"`
}

// jsonCoor wraps a coordinate so ±Inf survives the round trip (same
// scheme as the model format). "nan" decodes too, so that Read can
// reject a NaN coordinate by name: it would break the partial order
// the stored chains are trusted under. null is an error: decoding it
// into a float64 would leave 0 in its place.
type jsonCoor struct {
	value float64
}

// MarshalJSON implements json.Marshaler.
func (c jsonCoor) MarshalJSON() ([]byte, error) {
	switch {
	case math.IsInf(c.value, -1):
		return []byte(`"-inf"`), nil
	case math.IsInf(c.value, 1):
		return []byte(`"+inf"`), nil
	default:
		return json.Marshal(c.value)
	}
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *jsonCoor) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return fmt.Errorf("problem: null coordinate")
	}
	var f float64
	if err := json.Unmarshal(data, &f); err == nil {
		c.value = f
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("problem: invalid coordinate %s", data)
	}
	switch s {
	case "-inf":
		c.value = math.Inf(-1)
	case "+inf":
		c.value = math.Inf(1)
	case "nan":
		c.value = math.NaN()
	default:
		return fmt.Errorf("problem: invalid coordinate string %q", s)
	}
	return nil
}

// Write serializes p as versioned JSON. The flow network is not
// stored; Read rebuilds it from the stored decomposition.
func Write(w io.Writer, p *Problem) error {
	pf := problemFile{
		Format:     "monoclass-problem",
		Version:    1,
		Mode:       p.mode.String(),
		Dim:        p.stats.Dim,
		Labels:     make([]int, len(p.ws)),
		Weights:    make([]float64, len(p.ws)),
		Chains:     p.dec.Chains,
		Antichain:  p.dec.Antichain,
		Width:      p.dec.Width,
		ExactWidth: p.stats.ExactWidth,
	}
	for _, pt := range p.pts {
		row := make([]jsonCoor, len(pt))
		for k, v := range pt {
			row[k] = jsonCoor{value: v}
		}
		pf.Points = append(pf.Points, row)
	}
	for i, wp := range p.ws {
		pf.Labels[i] = int(wp.Label)
		pf.Weights[i] = wp.Weight
	}
	enc := json.NewEncoder(w)
	return enc.Encode(pf)
}

// Read deserializes a Problem written by Write, validating everything
// it trusts: one JSON value with nothing but whitespace after it,
// format, version, shapes, labels, weights, NaN-free coordinates, the
// chain decomposition (must be a valid partition in dominance order),
// and the antichain certificate — the last two through PrepareCover,
// which rebuilds the flow network eagerly over rank arrays of the
// stored points (ModeImplicit), so it only ever carries the points'
// own relation; the stored decomposition makes that the cheap part.
func Read(r io.Reader) (*Problem, error) {
	var pf problemFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&pf); err != nil {
		return nil, fmt.Errorf("problem: decoding: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("problem: data after the problem's JSON value")
	}
	if pf.Format != "monoclass-problem" {
		return nil, fmt.Errorf("problem: unknown format %q", pf.Format)
	}
	if pf.Version != 1 {
		return nil, fmt.Errorf("problem: unsupported version %d", pf.Version)
	}
	n := len(pf.Points)
	if n == 0 {
		return nil, fmt.Errorf("problem: empty point set")
	}
	if len(pf.Labels) != n || len(pf.Weights) != n {
		return nil, fmt.Errorf("problem: %d points but %d labels, %d weights", n, len(pf.Labels), len(pf.Weights))
	}
	if pf.Dim <= 0 {
		return nil, fmt.Errorf("problem: dimension %d must be positive", pf.Dim)
	}

	ws := make(geom.WeightedSet, n)
	for i, row := range pf.Points {
		if len(row) != pf.Dim {
			return nil, fmt.Errorf("problem: point %d has dimension %d, want %d", i, len(row), pf.Dim)
		}
		pt := make(geom.Point, pf.Dim)
		for k, c := range row {
			pt[k] = c.value
		}
		if pf.Labels[i] != 0 && pf.Labels[i] != 1 {
			return nil, fmt.Errorf("problem: point %d has non-binary label %d", i, pf.Labels[i])
		}
		ws[i] = geom.WeightedPoint{P: pt, Label: geom.Label(pf.Labels[i]), Weight: pf.Weights[i]}
	}
	return PrepareCover(ws, chains.Decomposition{Chains: pf.Chains, Width: pf.Width, Antichain: pf.Antichain}, pf.ExactWidth)
}
