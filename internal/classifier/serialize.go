package classifier

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"monoclass/internal/geom"
)

// modelFile is the on-disk JSON representation of a monotone
// classifier. Version guards future format changes; infinities (used
// by the constant-positive classifier's bottom anchor) are encoded as
// strings because JSON has no literal for them.
type modelFile struct {
	Format  string       `json:"format"`  // always "monoclass-anchors"
	Version int          `json:"version"` // currently 1
	Dim     int          `json:"dim"`
	Anchors [][]jsonCoor `json:"anchors"`
}

// jsonCoor wraps a coordinate so ±Inf survive the round trip.
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

// UnmarshalJSON implements json.Unmarshaler. A null coordinate is an
// error: decoding it into a float64 would leave 0 in its place.
func (c *jsonCoor) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return fmt.Errorf("classifier: null coordinate")
	}
	var f float64
	if err := json.Unmarshal(data, &f); err == nil {
		c.value = f
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("classifier: invalid coordinate %s", data)
	}
	switch s {
	case "-inf":
		c.value = math.Inf(-1)
	case "+inf":
		c.value = math.Inf(1)
	default:
		return fmt.Errorf("classifier: invalid coordinate string %q", s)
	}
	return nil
}

// WriteModel serializes the anchor classifier as versioned JSON.
func WriteModel(w io.Writer, h *AnchorSet) error {
	mf := modelFile{Format: "monoclass-anchors", Version: 1, Dim: h.Dim()}
	for _, a := range h.Anchors() {
		row := make([]jsonCoor, len(a))
		for i, v := range a {
			row[i] = jsonCoor{value: v}
		}
		mf.Anchors = append(mf.Anchors, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(mf)
}

// ReadModel deserializes a classifier written by WriteModel,
// validating format, version, and anchor dimensionality. Anything but
// whitespace after the JSON value is an error.
func ReadModel(r io.Reader) (*AnchorSet, error) {
	var mf modelFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&mf); err != nil {
		return nil, fmt.Errorf("classifier: decoding model: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("classifier: data after the model's JSON value")
	}
	if mf.Format != "monoclass-anchors" {
		return nil, fmt.Errorf("classifier: unknown model format %q", mf.Format)
	}
	if mf.Version != 1 {
		return nil, fmt.Errorf("classifier: unsupported model version %d", mf.Version)
	}
	anchors := make([]geom.Point, len(mf.Anchors))
	for i, row := range mf.Anchors {
		p := make(geom.Point, len(row))
		for k, c := range row {
			if math.IsNaN(c.value) {
				return nil, fmt.Errorf("classifier: anchor %d has NaN coordinate", i)
			}
			p[k] = c.value
		}
		anchors[i] = p
	}
	return NewAnchorSet(mf.Dim, anchors)
}
