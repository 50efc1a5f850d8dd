package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"strconv"
	"sync"

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
// and weights positive and finite. An error names the line its record
// starts on, as encoding/csv's ParseError.StartLine does.
//
// Records are split as encoding/csv's default Reader splits them
// (RFC 4180 quoting, CRLF line ends, blank lines skipped; see
// csvScanner), so it accepts exactly the input that reader fed to the
// same checks accepts, with bit-identical values. The input is read
// once into one buffer and parsed in place, and every point is carved
// from one coordinate backing with cap == len, so a whole set costs a
// handful of allocations instead of several per row. When nothing
// past the first record holds a quote, the rest is parsed on up to
// GOMAXPROCS goroutines, each taking at least parseGrain bytes (see
// parseCSV); the set and the error are the same at every count.
func ReadCSV(r io.Reader) (geom.WeightedSet, error) {
	buf, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	return parseCSV(buf, min(runtime.GOMAXPROCS(0), len(buf)/parseGrain))
}

// parseGrain is the fewest input bytes ReadCSV gives a chunk. On two
// CPUs, 8 or 16 KiB of input parse no faster in two chunks than in
// one, since starting and waking the second goroutine costs what the
// split saves; from 32 KiB two chunks save 12–45%. The grain keeps the
// smallest split, 64 KiB, one step past that first win
// (BenchmarkParseCSVGrain, bench_results.md K17).
const parseGrain = 32 << 10

// parseCSV parses buf in place, in up to chunks pieces at once. The
// first record fixes the dimension, and with it the slots the rest
// needs (see cutCSV). Each chunk stores its records in its own run of
// slots in the one set and the one coordinate backing, so no chunk
// writes where another does; the runs are then closed up in input
// order, and the first chunk with an error reports it.
func parseCSV(buf []byte, chunks int) (geom.WeightedSet, error) {
	s := csvScanner{buf: buf}
	first, line, err := s.record(make([][]byte, 0, 8))
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: line %d: %w", line, err)
	}
	if len(first) < 3 {
		return nil, columnsError(line, len(first))
	}
	dim := len(first) - 2
	parts, slots := cutCSV(buf, s.pos, s.lines+1, chunks, dim)
	out := make(geom.WeightedSet, slots)
	coords := make([]float64, slots*dim)
	if err := putRecord(out, coords, 0, first, dim, line); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for k := 1; k < len(parts); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &parts[k]
			c.n, c.err = c.parse(buf, out, coords, dim)
		}()
	}
	if len(parts) > 0 {
		c := &parts[0]
		c.n, c.err = c.parse(buf, out, coords, dim)
	}
	wg.Wait()

	n := 1
	for _, c := range parts {
		if c.err != nil {
			return nil, c.err
		}
		if c.base != n {
			copy(out[n:], out[c.base:c.base+c.n])
			copy(coords[n*dim:], coords[c.base*dim:(c.base+c.n)*dim])
			for i := n; i < n+c.n; i++ {
				out[i].P = coords[i*dim : (i+1)*dim : (i+1)*dim]
			}
		}
		n += c.n
	}
	return out[:n], nil
}

// cutCSV cuts buf[from:], whose first line is number line, into up to
// chunks pieces, and returns them with the slots a set needs for them
// and one record before them. If the piece holds a quote it is not
// cut. Otherwise every '\n' in it ends a record, so each cut falls
// just after the first '\n' past an even share of its bytes. A chunk
// gets a slot per line, and never more than its bytes could hold
// accepted records: each record starts a line of its own and spends
// at least 2d+3 bytes (d+2 non-empty fields and their commas), so no
// record, accepted or not, lands past its chunk's last slot.
func cutCSV(buf []byte, from, line, chunks, dim int) ([]csvChunk, int) {
	if chunks < 1 || bytes.IndexByte(buf[from:], '"') >= 0 {
		chunks = 1
	}
	parts := make([]csvChunk, 0, chunks)
	slots := 1
	for lo, k := from, 1; lo < len(buf); k++ {
		hi := len(buf)
		if k < chunks {
			at := max(lo, from+k*(len(buf)-from)/chunks)
			if e := bytes.IndexByte(buf[at:], '\n'); e >= 0 {
				hi = at + e + 1
			}
		}
		breaks := bytes.Count(buf[lo:hi], []byte{'\n'})
		lines := breaks
		if buf[hi-1] != '\n' {
			lines++
		}
		parts = append(parts, csvChunk{lo: lo, hi: hi, line: line, base: slots})
		slots += min(lines, (hi-lo)/(2*dim+3)+1)
		line += breaks
		lo = hi
	}
	return parts, slots
}

// csvChunk is one piece of parseCSV's input, buf[lo:hi], whose first
// line is number line and whose records go to the slots from base on;
// n and err are what its parse returned.
type csvChunk struct {
	lo, hi, line, base, n int
	err                   error
}

// parse stores the chunk's records and returns how many it stored, or
// the first error.
func (c *csvChunk) parse(buf []byte, out geom.WeightedSet, coords []float64, dim int) (int, error) {
	s := csvScanner{buf: buf[c.lo:c.hi], lines: c.line - 1}
	fields := make([][]byte, 0, dim+2)
	for slot := c.base; ; slot++ {
		var line int
		var err error
		fields, line, err = s.record(fields)
		if err == io.EOF {
			return slot - c.base, nil
		}
		if err != nil {
			return 0, fmt.Errorf("dataset: reading CSV: line %d: %w", line, err)
		}
		if err := putRecord(out, coords, slot, fields, dim, line); err != nil {
			return 0, err
		}
	}
}

func columnsError(line, columns int) error {
	return fmt.Errorf("dataset: line %d has %d columns, need at least 3", line, columns)
}

// putRecord checks the fields of the record that starts on line and
// stores its point in out[slot], carved from coords.
func putRecord(out geom.WeightedSet, coords []float64, slot int, fields [][]byte, dim, line int) error {
	if len(fields) < 3 {
		return columnsError(line, len(fields))
	}
	d := len(fields) - 2
	if d != dim {
		return fmt.Errorf("dataset: line %d has %d coordinates, want %d", line, d, dim)
	}
	p := coords[slot*d : (slot+1)*d : (slot+1)*d]
	for k := range p {
		v, err := strconv.ParseFloat(string(fields[k]), 64)
		if err != nil {
			return fmt.Errorf("dataset: line %d column %d: %w", line, k+1, err)
		}
		p[k] = v
	}
	labelInt, err := strconv.Atoi(string(fields[d]))
	if err != nil || (labelInt != 0 && labelInt != 1) {
		return fmt.Errorf("dataset: line %d: invalid label %q", line, fields[d])
	}
	weight, err := strconv.ParseFloat(string(fields[d+1]), 64)
	if err != nil {
		return fmt.Errorf("dataset: line %d: invalid weight %q", line, fields[d+1])
	}
	wp := geom.WeightedPoint{P: p, Label: geom.Label(labelInt), Weight: weight}
	if err := wp.Validate(); err != nil {
		return fmt.Errorf("dataset: line %d: %w", line, err)
	}
	out[slot] = wp
	return nil
}

// readAll reads r to the end into one buffer, sized up front when r
// reports what is left (bytes.Reader, strings.Reader, bytes.Buffer)
// or is a regular file, whose size Stat reports (os.File).
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	switch r := r.(type) {
	case interface{ Len() int }:
		buf.Grow(r.Len() + bytes.MinRead)
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
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
	buf   []byte
	pos   int // the first byte of the next line
	lines int // lines read, counting any before buf: the last is number lines
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
	s.lines++
	if end > start && s.buf[end-1] == '\r' {
		end--
	}
	return start, end, true
}

// record returns the fields of the next record, appended to
// fields[:0], and the number of the line it starts on, or io.EOF past
// the last one.
func (s *csvScanner) record(fields [][]byte) ([][]byte, int, error) {
	fields = fields[:0]
	var i, end int
	for {
		start, e, ok := s.line()
		if !ok {
			return nil, 0, io.EOF
		}
		if e > start {
			i, end = start, e
			break
		}
	}
	first := s.lines
	for {
		if i == end || s.buf[i] != '"' {
			j := end
			if c := bytes.IndexByte(s.buf[i:end], ','); c >= 0 {
				j = i + c
			}
			if bytes.IndexByte(s.buf[i:j], '"') >= 0 {
				return nil, first, errBareQuote
			}
			fields = append(fields, s.buf[i:j])
			if j == end {
				return fields, first, nil
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
					return nil, first, errQuote
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
				return append(fields, s.buf[from:w]), first, nil
			}
			if s.buf[i] != ',' {
				return nil, first, errQuote
			}
			fields = append(fields, s.buf[from:w])
			i++
			break
		}
	}
}
