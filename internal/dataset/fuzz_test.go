package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"monoclass/internal/geom"
)

// readCSVReference is the encoding/csv reference for ReadCSV: records
// from csv.Reader (no field count enforced), then ReadCSV's checks
// row by row. It also returns the line its first bad record starts
// on, from ParseError.StartLine or FieldPos. FuzzReadCSV holds
// ReadCSV to it.
func readCSVReference(r io.Reader) (geom.WeightedSet, int, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var out geom.WeightedSet
	dim := -1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return nil, pe.StartLine, err
		}
		if err != nil {
			return nil, 0, err
		}
		line, _ := cr.FieldPos(0)
		if len(row) < 3 {
			return nil, line, fmt.Errorf("line %d has %d columns", line, len(row))
		}
		d := len(row) - 2
		if dim == -1 {
			dim = d
		} else if d != dim {
			return nil, line, fmt.Errorf("line %d has %d coordinates, want %d", line, d, dim)
		}
		pt := make(geom.Point, d)
		for k := 0; k < d; k++ {
			if pt[k], err = strconv.ParseFloat(row[k], 64); err != nil {
				return nil, line, err
			}
		}
		labelInt, err := strconv.Atoi(row[d])
		if err != nil || (labelInt != 0 && labelInt != 1) {
			return nil, line, fmt.Errorf("line %d: invalid label %q", line, row[d])
		}
		weight, err := strconv.ParseFloat(row[d+1], 64)
		if err != nil {
			return nil, line, err
		}
		wp := geom.WeightedPoint{P: pt, Label: geom.Label(labelInt), Weight: weight}
		if err := wp.Validate(); err != nil {
			return nil, line, err
		}
		out = append(out, wp)
	}
	return out, 0, nil
}

// writeCSVReference is the encoding/csv reference for WriteCSV.
func writeCSVReference(ws geom.WeightedSet) string {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for _, wp := range ws {
		var row []string
		for _, c := range wp.P {
			row = append(row, strconv.FormatFloat(c, 'g', -1, 64))
		}
		cw.Write(append(row, wp.Label.String(), strconv.FormatFloat(wp.Weight, 'g', -1, 64)))
	}
	cw.Flush()
	return buf.String()
}

// errLine reads the line number out of a ReadCSV error.
var errLine = regexp.MustCompile(`^dataset: (?:reading CSV: )?line (\d+)\b`)

// FuzzReadCSV feeds arbitrary bytes to the CSV reader: it must never
// panic, it must accept exactly what the encoding/csv reference
// accepts, with bit-identical coordinates, labels and weights, and
// reject at the line the reference's first bad record starts on. It
// must read the same set, or the same error, with the input cut into
// 1, 2 or 3 chunks. Everything it accepts must round-trip losslessly
// through WriteCSV, which must write encoding/csv's bytes.
func FuzzReadCSV(f *testing.F) {
	f.Add("1,2,0,1\n3,4,1,2\n")
	f.Add("")
	f.Add("1,2,0\n")
	f.Add("x,y,z\n")
	f.Add("-1e300,2,1,0.5\n")
	f.Add("1,2,0,1\n1,2\n")
	f.Add("1,NaN,0,1\n3,4,1,2\n") // NaN breaks the partial order: rejected
	f.Add("-Inf,2,0,1\n+Inf,4,1,2\n")
	var sample bytes.Buffer
	WriteCSV(&sample, Figure1Weighted())
	f.Add(sample.String())
	// Quoting, line ends and number syntax, where a hand-written
	// splitter could part ways with encoding/csv.
	f.Add("\"1.5\",2,0,1\n")
	f.Add("\"1\"\"5\",2,0,1\n")             // "" escape: the field holds a quote, rejected
	f.Add("\"\",2,0,1\n")                   // an empty quoted field
	f.Add("\"1\n\",2,0,1\n")                // a quoted field spanning a newline
	f.Add("\"1\r\n2\",3,0,1\n")             // ... a CRLF one
	f.Add("1,2,\"0\"\n3,4,\"1\"\r\n")       // quoted labels, a quote closing before CRLF
	f.Add("\"1\"x,2,0,1\n")                 // text after a closing quote
	f.Add("1\"2,3,0,1\n")                   // a bare quote
	f.Add("\"1,2,0,1\n")                    // an unterminated quote
	f.Add("1,2,0,1\r\n3,4,1,2\r\n")         // CRLF
	f.Add("\n\n1,2,0,1\n\r\n\n3,4,1,2\n\n") // blank lines
	f.Add("1,2,0,1\r3,4,1,2\n")             // a bare \r mid-line
	f.Add("1,2,0,1\r")                      // a trailing \r at the end of input
	f.Add(" 1,2,0,1\n")                     // a leading space
	f.Add(" \"1\",2,0,1\n")                 // a leading space before a quote
	f.Add("1,2,0,1,\n")                     // a trailing comma
	f.Add("0x1p-2,0x1.8p3,0,1\n")           // hex floats
	f.Add("-0,0,1,0x1p-1\n")                // −0, a hex weight
	f.Add("+Inf,1e400,1,1\n")               // +Inf and an out-of-range coordinate
	f.Add("1_0,2,0,1\n")                    // an underscore
	f.Add("1,2,+1,1\n1,3,-0,2\n")           // signed labels
	// Shapes the chunked parse cuts.
	f.Add("1,2,0,1\n\n3,4,1,2\r\n5,6,0,1\n\n\n7,8,1,1")    // blank lines, CRLF, no final newline
	f.Add("\"1\",2,0,1\n3,4,1,2\n5,6,7,1\n7,8,1,zero\n")   // a quote in the first record only; two errors
	f.Add("1,2,0,1\n3,4,0,1\n5,\"6\",1,1\n7,8,1,1\n")      // a quote past the first record
	f.Add("1,2,0,1\n3,4,0,1,5\n\n6,7,1,1\n8,9,1,1\n1,2\n") // a wrong column count early, a short record last
	f.Fuzz(func(t *testing.T, data string) {
		ws, err := ReadCSV(strings.NewReader(data))
		ref, refLine, refErr := readCSVReference(strings.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadCSV error %v, encoding/csv reference error %v", err, refErr)
		}
		for chunks := 1; chunks <= 3; chunks++ {
			got, gotErr := parseCSV([]byte(data), chunks)
			if fmt.Sprint(gotErr) != fmt.Sprint(err) {
				t.Fatalf("%d chunks: error %v, ReadCSV's %v", chunks, gotErr, err)
			}
			if !sameSet(got, ws) {
				t.Fatalf("%d chunks: read %v, ReadCSV %v", chunks, got, ws)
			}
			for i := range got {
				if cap(got[i].P) != len(got[i].P) {
					t.Fatalf("%d chunks: row %d: point cap %d > len %d", chunks, i, cap(got[i].P), len(got[i].P))
				}
			}
		}
		if err != nil {
			if m := errLine.FindStringSubmatch(err.Error()); m == nil || m[1] != strconv.Itoa(refLine) {
				t.Fatalf("ReadCSV error %q, encoding/csv reference's bad record starts on line %d", err, refLine)
			}
			return
		}
		if !sameSet(ws, ref) {
			t.Fatalf("ReadCSV read %v, reference %v", ws, ref)
		}
		if err := ws.Validate(); err != nil {
			t.Fatalf("accepted set fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ws); err != nil {
			t.Fatalf("accepted set fails to serialize: %v", err)
		}
		if want := writeCSVReference(ws); buf.String() != want {
			t.Fatalf("WriteCSV wrote %q, encoding/csv %q", buf.String(), want)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if len(back) != len(ws) {
			t.Fatalf("round trip length %d != %d", len(back), len(ws))
		}
		for i := range ws {
			if !back[i].P.Equal(ws[i].P) || back[i].Label != ws[i].Label || back[i].Weight != ws[i].Weight {
				t.Fatalf("round trip row %d mismatch", i)
			}
		}
	})
}

// sameSet reports whether a and b hold the same points, labels and
// weights, bit for bit.
func sameSet(a, b geom.WeightedSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i].P, b[i].P) || a[i].Label != b[i].Label ||
			math.Float64bits(a[i].Weight) != math.Float64bits(b[i].Weight) {
			return false
		}
	}
	return true
}

func sameBits(p, q geom.Point) bool {
	if len(p) != len(q) {
		return false
	}
	for k := range p {
		if math.Float64bits(p[k]) != math.Float64bits(q[k]) {
			return false
		}
	}
	return true
}
