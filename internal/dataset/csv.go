package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"

	"monoclass/internal/geom"
)

// WriteCSV writes a weighted labeled set as CSV rows of the form
//
//	x1,x2,...,xd,label,weight
//
// with no header. The column count is d+2 for every row. No field
// needs quoting: every one is a strconv float or a label digit.
func WriteCSV(w io.Writer, ws geom.WeightedSet) error {
	bw := bufio.NewWriter(w)
	var row []byte
	for i, wp := range ws {
		row = row[:0]
		for _, c := range wp.P {
			row = strconv.AppendFloat(row, c, 'g', -1, 64)
			row = append(row, ',')
		}
		row = append(row, wp.Label.String()...)
		row = append(row, ',')
		row = strconv.AppendFloat(row, wp.Weight, 'g', -1, 64)
		row = append(row, '\n')
		if _, err := bw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadCSV parses rows written by WriteCSV. Every row must have the
// same column count (at least 3: one coordinate, label, weight);
// coordinates must not be NaN (±Inf is fine), labels must be 0 or 1
// and weights positive and finite.
//
// Records are split as encoding/csv's default Reader splits them
// (RFC 4180 quoting, CRLF line ends, blank lines skipped; see
// csvScanner), so it accepts exactly the input that reader fed to the
// same checks accepts, with bit-identical values. The input is read
// once into one buffer and parsed in place, and every point is carved
// from one coordinate backing with cap == len, so a whole set costs a
// handful of allocations instead of several per row.
func ReadCSV(r io.Reader) (geom.WeightedSet, error) {
	buf, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	s := csvScanner{buf: buf}
	var (
		out    geom.WeightedSet
		coords []float64
		fields = make([][]byte, 0, 8)
		dim    = -1
	)
	for line := 1; ; line++ {
		fields, err = s.record(fields)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: record %d: %w", line, err)
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("dataset: line %d has %d columns, need at least 3", line, len(fields))
		}
		d := len(fields) - 2
		if dim == -1 {
			dim = d
			// Records never outnumber lines, and an accepted record
			// spends at least 2d+3 bytes (d+2 non-empty fields and
			// their commas), so blank lines cannot inflate the sizing.
			rows := min(bytes.Count(buf, []byte{'\n'})+1, len(buf)/(2*d+3)+1)
			out = make(geom.WeightedSet, 0, rows)
			coords = make([]float64, 0, rows*d)
		} else if d != dim {
			return nil, fmt.Errorf("dataset: line %d has %d coordinates, want %d", line, d, dim)
		}
		for k := 0; k < d; k++ {
			v, err := strconv.ParseFloat(string(fields[k]), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d column %d: %w", line, k+1, err)
			}
			coords = append(coords, v)
		}
		labelInt, err := strconv.Atoi(string(fields[d]))
		if err != nil || (labelInt != 0 && labelInt != 1) {
			return nil, fmt.Errorf("dataset: line %d: invalid label %q", line, fields[d])
		}
		weight, err := strconv.ParseFloat(string(fields[d+1]), 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: invalid weight %q", line, fields[d+1])
		}
		wp := geom.WeightedPoint{P: coords[len(coords)-d:], Label: geom.Label(labelInt), Weight: weight}
		if err := wp.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		out = append(out, wp)
	}
	// coords may have moved while it grew, so the points are carved
	// once it is final.
	for i := range out {
		out[i].P = coords[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out, nil
}

// readAll reads r to the end into one buffer, sized up front when r
// reports what is left (bytes.Reader, strings.Reader, bytes.Buffer).
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if lr, ok := r.(interface{ Len() int }); ok {
		buf.Grow(lr.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

var (
	errBareQuote = errors.New(`bare " in non-quoted field`)
	errQuote     = errors.New(`extraneous or missing " in quoted field`)
)

// csvScanner splits a buffer into records the way encoding/csv's
// default Reader does (comma separator, no comments, strict quotes).
// A line runs to the next '\n' or the end of the input, less one
// trailing '\r'; lines with nothing left are skipped between records.
// A field that starts with '"' is quoted: it runs to a closing quote
// followed by a comma or the end of the line, "" stands for one
// quote, and it may span lines, each break reading as '\n'. Any other
// field runs to the next comma and must hold no quote. Quoted fields
// are unescaped in place — the write cursor never passes the read
// cursor — so every field is a slice of the buffer.
type csvScanner struct {
	buf []byte
	pos int // the first byte of the next line
}

// line returns the bounds of the next line's content, or ok false at
// the end of the input.
func (s *csvScanner) line() (start, end int, ok bool) {
	if s.pos >= len(s.buf) {
		return 0, 0, false
	}
	start, end = s.pos, len(s.buf)
	if n := bytes.IndexByte(s.buf[start:], '\n'); n >= 0 {
		end = start + n
	}
	s.pos = min(end+1, len(s.buf))
	if end > start && s.buf[end-1] == '\r' {
		end--
	}
	return start, end, true
}

// record returns the fields of the next record, appended to
// fields[:0], or io.EOF past the last one.
func (s *csvScanner) record(fields [][]byte) ([][]byte, error) {
	fields = fields[:0]
	var i, end int
	for {
		start, e, ok := s.line()
		if !ok {
			return nil, io.EOF
		}
		if e > start {
			i, end = start, e
			break
		}
	}
	for {
		if i == end || s.buf[i] != '"' {
			j := end
			if c := bytes.IndexByte(s.buf[i:end], ','); c >= 0 {
				j = i + c
			}
			if bytes.IndexByte(s.buf[i:j], '"') >= 0 {
				return nil, errBareQuote
			}
			fields = append(fields, s.buf[i:j])
			if j == end {
				return fields, nil
			}
			i = j + 1
			continue
		}
		from, w := i, i
		for i++; ; {
			q := bytes.IndexByte(s.buf[i:end], '"')
			if q < 0 {
				w += copy(s.buf[w:], s.buf[i:end])
				start, e, ok := s.line()
				if !ok {
					return nil, errQuote
				}
				s.buf[w] = '\n'
				w, i, end = w+1, start, e
				continue
			}
			w += copy(s.buf[w:], s.buf[i:i+q])
			i += q + 1
			if i < end && s.buf[i] == '"' {
				s.buf[w] = '"'
				w, i = w+1, i+1
				continue
			}
			if i == end {
				return append(fields, s.buf[from:w]), nil
			}
			if s.buf[i] != ',' {
				return nil, errQuote
			}
			fields = append(fields, s.buf[from:w])
			i++
			break
		}
	}
}
