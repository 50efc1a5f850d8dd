package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"monoclass/internal/geom"
)

// WriteCSV writes a weighted labeled set as CSV rows of the form
//
//	x1,x2,...,xd,label,weight
//
// with no header. The column count is d+2 for every row.
func WriteCSV(w io.Writer, ws geom.WeightedSet) error {
	cw := csv.NewWriter(w)
	for i, wp := range ws {
		row := make([]string, 0, len(wp.P)+2)
		for _, c := range wp.P {
			row = append(row, strconv.FormatFloat(c, 'g', -1, 64))
		}
		row = append(row, wp.Label.String())
		row = append(row, strconv.FormatFloat(wp.Weight, 'g', -1, 64))
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses rows written by WriteCSV. Every row must have the
// same column count (at least 3: one coordinate, label, weight);
// coordinates must not be NaN (±Inf is fine), labels must be 0 or 1
// and weights positive and finite.
func ReadCSV(r io.Reader) (geom.WeightedSet, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually for a better message
	var out geom.WeightedSet
	dim := -1
	line := 0
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		line++
		if len(row) < 3 {
			return nil, fmt.Errorf("dataset: line %d has %d columns, need at least 3", line, len(row))
		}
		d := len(row) - 2
		if dim == -1 {
			dim = d
		} else if d != dim {
			return nil, fmt.Errorf("dataset: line %d has %d coordinates, want %d", line, d, dim)
		}
		pt := make(geom.Point, d)
		for k := 0; k < d; k++ {
			v, err := strconv.ParseFloat(row[k], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d column %d: %w", line, k+1, err)
			}
			pt[k] = v
		}
		labelInt, err := strconv.Atoi(row[d])
		if err != nil || (labelInt != 0 && labelInt != 1) {
			return nil, fmt.Errorf("dataset: line %d: invalid label %q", line, row[d])
		}
		weight, err := strconv.ParseFloat(row[d+1], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: invalid weight %q", line, row[d+1])
		}
		wp := geom.WeightedPoint{P: pt, Label: geom.Label(labelInt), Weight: weight}
		if err := wp.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		out = append(out, wp)
	}
	return out, nil
}
