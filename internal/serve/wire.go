package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"monoclass/internal/geom"
)

// The classify wire codec. /classify and /classify/batch parse their
// request bodies and write their answers here, without encoding/json:
// its reflective decode of [][]float64 was ≈86% of a 512-point batch
// handler's time.
//
// The decoder accepts the bodies encoding/json accepts for
// {"point":[...]} and {"points":[[...],...]} under
// DisallowUnknownFields: keys match case-insensitively after
// unescaping, a repeated key replaces the earlier value, and a
// top-level null, {} or a null field value is an empty request. It is
// stricter in two ways: a null coordinate is an error (encoding/json
// leaves the float64 as it was, so [1,null,3] read as (1,0,3)), and so
// is anything but whitespace after the value (json.Decoder stops
// reading at its end). Every number token goes through
// strconv.ParseFloat, as in encoding/json, so coordinates are
// bit-identical. FuzzClassifyWire holds the codec to encoding/json.

// errTooManyPoints stops a batch decode at the first point past its
// limit.
var errTooManyPoints = errors.New("too many points")

// ReadBody reads rd to EOF into one buffer sized from declared, a
// Content-Length (negative when unknown). The size is clamped to limit
// so that a false header cannot force a large allocation; the caller
// enforces the limit itself, for a request body with
// http.MaxBytesReader.
func ReadBody(rd io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 {
		size = min(declared, limit) + 1 // +1: the read that meets EOF needs no growth
	}
	buf := make([]byte, 0, size)
	for {
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodePoint parses a /classify body, {"point":[x1,...,xd]}.
func decodePoint(body []byte) (geom.Point, error) {
	d := wireDecoder{b: body}
	d.presize(0)
	if err := d.request(false, 0); err != nil {
		return nil, err
	}
	return d.flat, nil
}

// decodeBatch parses a /classify/batch body, {"points":[[...],...]},
// into points that slice one shared coordinate buffer. It fails with
// errTooManyPoints on reaching a point past limit.
func decodeBatch(body []byte, limit int) ([]geom.Point, error) {
	d := wireDecoder{b: body}
	d.presize(limit)
	if err := d.request(true, limit); err != nil {
		return nil, err
	}
	pts := make([]geom.Point, len(d.ends))
	start := 0
	for k, end := range d.ends {
		pts[k] = d.flat[start:end:end]
		start = end
	}
	return pts, nil
}

// FirstPoint returns the first point of a /classify body (batch false)
// or a /classify/batch body, parsing no further than that point. It
// returns nil when the body is malformed before the point ends or the
// point is empty; the strict parse belongs to the server that answers.
func FirstPoint(body []byte, batch bool) geom.Point {
	d := wireDecoder{b: body}
	err := d.request(batch, 1)
	if err != nil && err != errTooManyPoints {
		return nil
	}
	if batch {
		if len(d.ends) == 0 {
			return nil
		}
		d.flat = d.flat[:d.ends[0]]
	}
	if len(d.flat) == 0 {
		return nil
	}
	return d.flat
}

// wireDecoder walks one JSON body from b[i]. Coordinates land in flat;
// ends[k] is where point k of a batch ends in flat.
type wireDecoder struct {
	b    []byte
	i    int
	flat []float64
	ends []int
}

// presize sizes flat and ends so that a well-formed body fills them
// without regrowth: c commas separate at most c+1 coordinates, and a
// batch holds fewer points than it has '[' bytes. The coordinate
// estimate is capped at one per 8 body bytes, so a hostile body cannot
// reserve more memory than its own size.
func (d *wireDecoder) presize(limit int) {
	d.flat = make([]float64, 0, min(bytes.Count(d.b, []byte{','})+1, len(d.b)/8+1))
	if limit > 0 {
		d.ends = make([]int, 0, min(bytes.Count(d.b, []byte{'['}), limit))
	}
}

// request parses a whole body: null, or an object whose one field
// holds a point or, for a batch, an array of points, followed by
// nothing but whitespace.
func (d *wireDecoder) request(batch bool, limit int) error {
	field := "point"
	if batch {
		field = "points"
	}
	d.space()
	if !d.literal("null") {
		if err := d.object(field, batch, limit); err != nil {
			return err
		}
	}
	d.space()
	if d.i < len(d.b) {
		return d.syntax("after top-level value")
	}
	return nil
}

func (d *wireDecoder) object(field string, batch bool, limit int) error {
	return d.list('{', '}', "object", func() error {
		key, err := d.key()
		if err != nil {
			return err
		}
		if !bytes.EqualFold(key, []byte(field)) {
			return fmt.Errorf("unknown field %q", key)
		}
		d.space()
		if !d.consume(':') {
			return d.syntax("after object key")
		}
		d.space()
		d.flat, d.ends = d.flat[:0], d.ends[:0] // a repeated key replaces the earlier value
		if batch {
			return d.points(limit)
		}
		return d.point()
	})
}

// points parses null or an array of points.
func (d *wireDecoder) points(limit int) error {
	if d.literal("null") {
		return nil
	}
	return d.list('[', ']', "array of points", func() error {
		if len(d.ends) == limit {
			return errTooManyPoints
		}
		if err := d.point(); err != nil {
			return err
		}
		d.ends = append(d.ends, len(d.flat))
		return nil
	})
}

// point parses an array of numbers, or null, which encoding/json reads
// as a point with no coordinates. A null coordinate is an error.
func (d *wireDecoder) point() error {
	if d.literal("null") {
		return nil
	}
	return d.list('[', ']', "array of coordinates", d.number)
}

// list parses open, then elements separated by commas, then end,
// with JSON whitespace allowed between the tokens.
func (d *wireDecoder) list(open, end byte, what string, element func() error) error {
	if !d.consume(open) {
		return d.syntax("looking for " + what)
	}
	d.space()
	if d.consume(end) {
		return nil
	}
	for {
		if err := element(); err != nil {
			return err
		}
		d.space()
		if d.consume(end) {
			return nil
		}
		if !d.consume(',') {
			return d.syntax("after " + what + " element")
		}
		d.space()
	}
}

// number scans one JSON number and converts it with strconv.ParseFloat,
// as encoding/json does for a float64 (so 1e400 is an error and 1e-400
// is 0).
func (d *wireDecoder) number() error {
	b, start := d.b, d.i
	d.consume('-')
	switch {
	case d.consume('0'):
	case d.i < len(b) && '1' <= b[d.i] && b[d.i] <= '9':
		d.digits()
	case d.i == start && d.literal("null"):
		return fmt.Errorf("null coordinate at offset %d", start)
	default:
		return d.syntax("looking for a coordinate")
	}
	if d.consume('.') && !d.digits() {
		return d.syntax("after decimal point in numeric literal")
	}
	if d.consume('e') || d.consume('E') {
		if !d.consume('+') {
			d.consume('-')
		}
		if !d.digits() {
			return d.syntax("in exponent of numeric literal")
		}
	}
	f, err := strconv.ParseFloat(string(b[start:d.i]), 64)
	if err != nil {
		return fmt.Errorf("coordinate %s: %w", b[start:d.i], err)
	}
	d.flat = append(d.flat, f)
	return nil
}

// digits consumes a run of decimal digits, reporting whether there was
// one.
func (d *wireDecoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// key scans an object key and returns it unescaped; a key without
// escapes is returned in place.
func (d *wireDecoder) key() ([]byte, error) {
	if !d.consume('"') {
		return nil, d.syntax("looking for beginning of object key string")
	}
	var out []byte
	for start := d.i; d.i < len(d.b); {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			if out == nil {
				return d.b[start : d.i-1], nil
			}
			return out, nil
		case c < 0x20:
			return nil, d.syntax("in string literal")
		case c != '\\':
			if out != nil {
				out = append(out, c)
			}
			d.i++
		default:
			if out == nil {
				out = append([]byte{}, d.b[start:d.i]...)
			}
			var err error
			if out, err = d.escape(out); err != nil {
				return nil, err
			}
		}
	}
	return nil, d.syntax("in string literal")
}

// escape decodes the escape sequence at b[i] onto out. A \u escape of
// a UTF-16 surrogate half appends U+FFFD: encoding/json combines a
// valid pair into one rune instead, but neither result can fold to an
// ASCII field name, so the key's match is the same.
func (d *wireDecoder) escape(out []byte) ([]byte, error) {
	d.i++ // past the backslash
	if d.i < len(d.b) {
		if k := strings.IndexByte(`"\/bfnrt`, d.b[d.i]); k >= 0 {
			d.i++
			return append(out, "\"\\/\b\f\n\r\t"[k]), nil
		}
		if d.b[d.i] == 'u' && d.i+5 <= len(d.b) {
			if r, err := strconv.ParseUint(string(d.b[d.i+1:d.i+5]), 16, 16); err == nil {
				d.i += 5
				return utf8.AppendRune(out, rune(r)), nil
			}
		}
	}
	return nil, d.syntax("in string escape code")
}

func (d *wireDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *wireDecoder) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *wireDecoder) literal(s string) bool {
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// syntax reports the byte at the cursor, or the end of input, as out
// of place.
func (d *wireDecoder) syntax(where string) error {
	if d.i >= len(d.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d %s", d.b[d.i], d.i, where)
}

// appendPointResponse appends a /classify answer exactly as
// json.Encoder writes {"label":L,"version":V}, newline included.
func appendPointResponse(buf []byte, label geom.Label, version int64) []byte {
	buf = append(buf, `{"label":`...)
	buf = strconv.AppendUint(buf, uint64(label), 10)
	buf = append(buf, `,"version":`...)
	buf = strconv.AppendInt(buf, version, 10)
	return append(buf, "}\n"...)
}

// appendBatchResponse appends a /classify/batch answer exactly as
// json.Encoder writes {"labels":[...],"version":V} for a non-nil
// label slice, newline included.
func appendBatchResponse(buf []byte, labels []geom.Label, version int64) []byte {
	buf = append(buf, `{"labels":[`...)
	for i, l := range labels {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, uint64(l), 10)
	}
	buf = append(buf, `],"version":`...)
	buf = strconv.AppendInt(buf, version, 10)
	return append(buf, "}\n"...)
}

// writeEncoded answers 200 with a body the codec encoded.
func writeEncoded(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
