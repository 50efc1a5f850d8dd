package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
)

// The request and response shapes the classify endpoints decoded and
// encoded with encoding/json before the wire codec; they remain its
// oracle.
type classifyRequest struct {
	Point []float64 `json:"point"`
}

type batchRequest struct {
	Points [][]float64 `json:"points"`
}

type classifyResponse struct {
	Label   int   `json:"label"`
	Version int64 `json:"version"`
}

type batchResponse struct {
	Labels  []int `json:"labels"`
	Version int64 `json:"version"`
}

// oracleDecode decodes body as the handlers did before the codec. It
// returns the points, or ok=false where encoding/json rejects the
// body. nullCoord reports a null coordinate anywhere in the value,
// including in a field a repeated key replaced (encoding/json reads it
// as 0 or a stale value, not an error); trailing reports non-whitespace
// after the value (which json.Decoder never reads).
func oracleDecode(body []byte, batch bool) (pts [][]float64, ok, nullCoord, trailing bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if batch {
		var req batchRequest
		if dec.Decode(&req) != nil {
			return nil, false, false, false
		}
		pts = req.Points
	} else {
		var req classifyRequest
		if dec.Decode(&req) != nil {
			return nil, false, false, false
		}
		pts = [][]float64{req.Point}
	}
	value := body[:dec.InputOffset()]
	trailing = len(bytes.TrimLeft(body[len(value):], " \t\r\n")) > 0
	// In a body of the accepted shape, a null token is a coordinate
	// when it sits in a point's array: array depth 1 for /classify,
	// 2 for /classify/batch.
	coordDepth := 1
	if batch {
		coordDepth = 2
	}
	tokens := json.NewDecoder(bytes.NewReader(value))
	for depth := 0; ; {
		tok, err := tokens.Token()
		if err != nil {
			break
		}
		switch tok {
		case json.Delim('['):
			depth++
		case json.Delim(']'):
			depth--
		case nil:
			nullCoord = nullCoord || depth == coordDepth
		}
	}
	return pts, true, nullCoord, trailing
}

func samePoints(got []geom.Point, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for k := range got[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				return false
			}
		}
	}
	return true
}

// FuzzClassifyWire runs arbitrary bytes through the wire codec and
// through encoding/json with the old wire structs. The codec accepts
// exactly what encoding/json accepts minus bodies with a null
// coordinate or trailing data, and then yields the same points with
// bit-identical coordinates; its responses equal json.Encoder's
// bytes; and the router's first-point parse agrees on /classify
// bodies.
func FuzzClassifyWire(f *testing.F) {
	ws := " \t\r\n"
	for _, body := range []string{
		`{"point":[0.8,0.3,0.7]}`,
		`{"points":[[0.8,0.3,0.7],[0.1,0.2,0.1]]}`,
		`{"POINTS":[[1,2]]}`,
		`{"Point":[1]}`,
		`{"points":[[1]]}`,
		`{"point":[1]}`,
		`{"pointſ":[[1]]}`,
		`{"\u0070oints":[[1]]}`,
		`{"po\u0069nt":[1]}`,
		`{"point\u017f":[[1]]}`,
		`{"points\ud800":[[1]]}`,
		`{"points\ud83d\ude00":[[1]]}`,
		`{"p\"oints\n":[[1]]}`,
		`{"points\x":[[1]]}`,
		`{"points\u00":[[1]]}`,
		`{"points":[[1]],"points":[[2],[3]]}`,
		`{"points":[[1,2]],"points":[[5,null]]}`,
		`{"points":[[null]],"points":[[4]]}`,
		`{"points":[[-0,0]]}`,
		`{"points":[[1E+2,1e-2,-1.5e3]]}`,
		`{"points":[[1e-400]]}`,
		`{"points":[[1e400]]}`,
		`{"points":[[12345678901234567890,-98765432109876543210]]}`,
		`{"points":[[01]]}`,
		`{"points":[[.5]]}`,
		`{"points":[[NaN]]}`,
		`{"points":[[1.]]}`,
		`{"points":[["1"]]}`,
		`{"points":[[[1]]]}`,
		`{"points":[[1,null,3]]}`,
		`{"point":[1,null,3]}`,
		`{"points":[[1,1,1]]}garbage`,
		`{"points":[[1,1,1]]}{"points":[[0,0,0]]}`,
		`{"point":[1]} x`,
		`{"points":[null]}`,
		`{"points":null}`,
		`{"point":null}`,
		`{}`,
		`null`,
		`nullx`,
		`{"points":[]}`,
		`{"points":[[]]}`,
		`{"points":[[1]],"x":1}`,
		`{"points":[[1]],}`,
		`{"points":{}}`,
		`[[1]]`,
		``,
		`{`,
		ws + `{` + ws + `"points"` + ws + `:` + ws + `[` + ws + `[` + ws + `1` + ws + `,` + ws + `2` + ws + `]` + ws + `,` + ws + `[` + ws + `]` + ws + `]` + ws + `}` + ws,
	} {
		f.Add([]byte(body), int64(1))
	}
	f.Fuzz(func(t *testing.T, body []byte, version int64) {
		for _, batch := range []bool{false, true} {
			var got []geom.Point
			var err error
			if batch {
				got, err = decodeBatch(body, len(body)+1)
			} else {
				var pt geom.Point
				pt, err = decodePoint(body)
				got = []geom.Point{pt}
			}
			key := FirstPoint(body, batch)
			want, ok, nullCoord, trailing := oracleDecode(body, batch)
			switch {
			case !ok || nullCoord || trailing:
				if err == nil {
					t.Fatalf("batch=%v %q: codec accepts; encoding/json ok=%v, null coordinate %v, trailing data %v",
						batch, body, ok, nullCoord, trailing)
				}
				continue
			case err != nil:
				t.Fatalf("batch=%v %q: codec rejects (%v) what encoding/json accepts as %v", batch, body, err, want)
			case !samePoints(got, want):
				t.Fatalf("batch=%v %q: codec reads %v, encoding/json %v", batch, body, got, want)
			}
			if !batch && len(got[0]) > 0 && !samePoints([]geom.Point{key}, want) {
				t.Fatalf("%q: FirstPoint = %v, want %v", body, key, want[0])
			}

			labels := make([]geom.Label, len(got))
			ints := make([]int, len(got))
			for i := range got {
				labels[i] = geom.Label(i & 1)
				ints[i] = i & 1
			}
			var enc bytes.Buffer
			if batch {
				json.NewEncoder(&enc).Encode(batchResponse{Labels: ints, Version: version})
				if resp := appendBatchResponse(nil, labels, version); !bytes.Equal(resp, enc.Bytes()) {
					t.Fatalf("batch response %q, json.Encoder %q", resp, enc.Bytes())
				}
			} else {
				json.NewEncoder(&enc).Encode(classifyResponse{Label: ints[0], Version: version})
				if resp := appendPointResponse(nil, labels[0], version); !bytes.Equal(resp, enc.Bytes()) {
					t.Fatalf("point response %q, json.Encoder %q", resp, enc.Bytes())
				}
			}
		}
	})
}

// batchHandlerFixture is a /classify/batch request of 512 d=3 points
// against a 64-anchor d=3 model.
func batchHandlerFixture(tb testing.TB) (http.Handler, []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	anchors := make([]geom.Point, 64)
	for i := range anchors {
		anchors[i] = geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	model, err := classifier.NewAnchorSet(3, anchors)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(model, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	var req batchRequest
	for range 512 {
		req.Points = append(req.Points, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return srv.Handler(), body
}

func serveBatch(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// TestClassifyBatchAllocs bounds the allocations of one 512-point
// /classify/batch call, request and recorder included, so that a
// reflective decoder (≈1,600 allocations per call) cannot creep back.
func TestClassifyBatchAllocs(t *testing.T) {
	h, body := batchHandlerFixture(t)
	allocs := testing.AllocsPerRun(50, func() { serveBatch(t, h, body) })
	t.Logf("%.0f allocations per 512-point call", allocs)
	if allocs > 64 {
		t.Errorf("%.0f allocations per 512-point /classify/batch call, want ≤ 64", allocs)
	}
}

// BenchmarkClassifyBatchHandler times one 512-point d=3 /classify/batch
// call through the handler: body read, decode, kernel and encode.
func BenchmarkClassifyBatchHandler(b *testing.B) {
	h, body := batchHandlerFixture(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBatch(b, h, body)
	}
}

func ExampleFirstPoint() {
	fmt.Println(FirstPoint([]byte(`{"points":[[1,2],[3,4]`), true))
	// Output: (1, 2)
}
