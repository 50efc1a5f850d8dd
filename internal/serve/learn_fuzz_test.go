package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"monoclass/internal/classifier"
)

// refPoint reads a delta's coordinates with encoding/json. Decoding
// through []*float64 makes a null coordinate visible instead of
// reading it as 0; a null point is a point with no coordinates.
type refPoint []float64

func (p *refPoint) UnmarshalJSON(data []byte) error {
	var coords []*float64
	if err := json.Unmarshal(data, &coords); err != nil {
		return err
	}
	var out refPoint
	for k, c := range coords {
		if c == nil {
			return fmt.Errorf("null coordinate %d", k)
		}
		out = append(out, *c)
	}
	*p = out
	return nil
}

type refDelta struct {
	Op     string   `json:"op"`
	Point  refPoint `json:"point"`
	Label  int      `json:"label"`
	Weight float64  `json:"weight"`
}

// learnReference decides a /learn body the way the handler must: the
// status, and for a 202 how many inserts and deletes it queued. It
// applies the handler's rules in the handler's order — decode (unknown
// fields and trailing data rejected), empty list, the 413 past limit
// deltas, then op, dimension, label and insert weight — with no code
// shared with it.
func learnReference(body []byte, dim, limit int) (status, inserts, deletes int) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req struct {
		Deltas []refDelta `json:"deltas"`
	}
	if dec.Decode(&req) != nil {
		return http.StatusBadRequest, 0, 0
	}
	if _, err := dec.Token(); err != io.EOF {
		return http.StatusBadRequest, 0, 0
	}
	switch {
	case len(req.Deltas) == 0:
		return http.StatusBadRequest, 0, 0
	case len(req.Deltas) > limit:
		return http.StatusRequestEntityTooLarge, 0, 0
	}
	for _, d := range req.Deltas {
		if len(d.Point) != dim || (d.Label != 0 && d.Label != 1) {
			return http.StatusBadRequest, 0, 0
		}
		switch d.Op {
		case "insert":
			if !(d.Weight > 0) { // JSON cannot spell ±Inf or NaN
				return http.StatusBadRequest, 0, 0
			}
			inserts++
		case "delete":
			deletes++
		default:
			return http.StatusBadRequest, 0, 0
		}
	}
	return http.StatusAccepted, inserts, deletes
}

// FuzzLearnBody posts arbitrary bytes to /learn on a fresh dim-2
// server and holds the answer to learnReference: the same status, and
// after the drain on Close, exactly the reference's inserts and
// deletes (applied or missed) for a 202 and nothing for a rejection.
func FuzzLearnBody(f *testing.F) {
	const ins = `{"op":"insert","point":[1,2],"label":1,"weight":1}`
	for _, body := range []string{
		`{"deltas":[` + ins + `]}`,
		`{"deltas":[{"op":"delete","point":[1,2],"label":1}]}`,
		`{"deltas":[` + ins + `,{"op":"delete","point":[1,2],"label":1},{"op":"delete","point":[3,4],"label":0}]}`,
		`{"deltas":[{"op":"insert","point":[1,null],"label":1,"weight":1}]}`,
		`{"deltas":[{"op":"insert","point":null,"label":1,"weight":1}]}`,
		`{"deltas":[{"op":"insert","point":["NaN",2],"label":1,"weight":1}]}`,
		`{"deltas":[{"op":"insert","point":[1e400,2],"label":1,"weight":1}]}`,
		`{"deltas":[{"op":"insert","point":[-0,1e-400],"label":0,"weight":0.5}]}`,
		`{"deltas":[` + ins + `]}x`,
		`{"deltas":[` + ins + `]} ` + "\n",
		`{"deltas":[` + ins + `]}{}`,
		`{"deltas":[{"op":"insert","point":[1,2],"label":1,"weight":1,"extra":0}]}`,
		`{"deltas":[],"more":1}`,
		`{"deltas":[]}`,
		`{"deltas":null}`,
		`{}`,
		`{"DELTAS":[{"OP":"insert","Point":[1,2],"LABEL":1,"Weight":1}]}`,
		`{"deltas":[{"op":"Insert","point":[1,2],"label":1,"weight":1}]}`,
		`{"deltas":[{"op":"insert","point":[1],"label":1,"weight":1}]}`,
		`{"deltas":[{"op":"delete","point":[1,2,3],"label":1}]}`,
		`{"deltas":[{"op":"insert","point":[1,2],"label":2,"weight":1}]}`,
		`{"deltas":[{"op":"insert","point":[1,2],"label":1.5,"weight":1}]}`,
		`{"deltas":[{"op":"insert","point":[1,2],"label":257,"weight":1}]}`,
		`{"deltas":[{"op":"delete","point":[1,2],"label":-255}]}`,
		`{"deltas":[{"op":"insert","point":[1,2],"label":1,"weight":-1}]}`,
		`{"deltas":[{"op":"insert","point":[1,2],"label":1}]}`,
		`{"deltas":[{"op":"delete","point":[1,2],"label":0,"weight":-1}]}`,
		`{"deltas":[{"op":"insert","point":[1,null],"point":[1,2],"label":1,"weight":1}]}`,
		`{"deltas":[{"op":"insert","point":[1,2],"point":null,"label":1,"weight":1}]}`,
		`{"deltas":[` + ins + `],"deltas":[{"op":"delete"}]}`,
		`{"deltas":[` + ins + `,` + ins + `,` + ins + `,` + ins + `,` + ins + `,` + ins + `,` + ins + `,` + ins + `,` + ins + `]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		const dim, limit = 2, 8
		srv, err := NewServer(classifier.ConstNegative(dim), Config{MaxClientBatch: limit, Online: &OnlineConfig{}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/learn", bytes.NewReader(body)))
		srv.Close()
		status, inserts, deletes := learnReference(body, dim, limit)
		if rec.Code != status {
			t.Fatalf("status %d (%s), reference %d", rec.Code, bytes.TrimSpace(rec.Body.Bytes()), status)
		}
		st := srv.Learner().Updater().Stats()
		if st.Inserts != uint64(inserts) || st.Deletes+st.DeleteMisses != uint64(deletes) || st.ApplyErrors != 0 {
			t.Fatalf("status %d applied %+v, reference queued %d inserts and %d deletes", rec.Code, st, inserts, deletes)
		}
	})
}
