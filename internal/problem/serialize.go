package problem

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"time"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

// problemFile is the on-disk JSON representation of a prepared
// Problem, versioned alongside the model format. It stores everything
// Prepare derives except the flow network (cheap to rebuild once the
// decomposition — the expensive part — is known): points, labels,
// weights, the chain decomposition with its antichain certificate, and
// for small dense instances the matrix words, which Read holds to the
// relation it rebuilds from the points.
type problemFile struct {
	Format     string       `json:"format"`  // always "monoclass-problem"
	Version    int          `json:"version"` // currently 1
	Mode       string       `json:"mode"`
	Dim        int          `json:"dim"`
	Points     [][]jsonCoor `json:"points"`
	Labels     []int        `json:"labels"`
	Weights    []float64    `json:"weights"`
	Chains     [][]int      `json:"chains"`
	Antichain  []int        `json:"antichain,omitempty"`
	Width      int          `json:"width"`
	ExactWidth bool         `json:"exact_width"`
	// Matrix carries the dense bit-packed relation, included only for
	// small dense instances (n ≤ matrixBlobLimit). A dense reader
	// always rebuilds the relation with the kernel builder and rejects
	// a file whose words differ from it in any bit.
	Matrix *matrixBlob `json:"matrix,omitempty"`
}

// matrixBlob is the dense matrix's dom and dag words, little-endian
// uint64s, base64-encoded.
type matrixBlob struct {
	Dom string `json:"dom"`
	Dag string `json:"dag"`
}

// matrixBlobLimit caps the instance size whose matrix words are
// inlined into the file (4096 points ≈ 4 MiB of words before base64).
const matrixBlobLimit = 4096

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

func encodeWords(words []uint64) string {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

func decodeWords(s string) ([]uint64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("problem: matrix blob length %d not word-aligned", len(buf))
	}
	words := make([]uint64, len(buf)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return words, nil
}

// Write serializes p as versioned JSON. The flow network is not
// stored; Read rebuilds it from the stored decomposition.
func Write(w io.Writer, p *Problem) error {
	pf := problemFile{
		Format:     "monoclass-problem",
		Version:    1,
		Mode:       p.mode.String(),
		Dim:        p.dim,
		Labels:     make([]int, len(p.ws)),
		Weights:    make([]float64, len(p.ws)),
		Chains:     p.dec.Chains,
		Antichain:  p.dec.Antichain,
		Width:      p.dec.Width,
		ExactWidth: p.exactWidth,
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
	if p.matrix != nil && p.matrix.N() <= matrixBlobLimit {
		n, words := p.matrix.N(), p.matrix.Words()
		dom := make([]uint64, 0, n*words)
		dag := make([]uint64, 0, n*words)
		for i := 0; i < n; i++ {
			dom = append(dom, p.matrix.DomRow(i)...)
			dag = append(dag, p.matrix.DAGRow(i)...)
		}
		pf.Matrix = &matrixBlob{Dom: encodeWords(dom), Dag: encodeWords(dag)}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(pf)
}

// Read deserializes a Problem written by Write, validating everything
// it trusts: one JSON value with nothing but whitespace after it,
// format, version, mode, shapes, labels, weights, NaN-free
// coordinates, the chain decomposition (must be a valid partition in
// dominance order), the antichain certificate, and — when matrix
// words are present — the blob's structural invariants and every one
// of its bits against a fresh kernel build over the stored points, so
// the network is only ever built over the points' own relation. The
// flow network is rebuilt eagerly; the stored decomposition makes
// that the cheap part.
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
	mode, err := ParseMode(pf.Mode)
	if err != nil {
		return nil, err
	}
	if mode == ModeAuto {
		return nil, fmt.Errorf("problem: serialized mode must be resolved, got auto")
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
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	pts := pointsOf(ws)

	if pf.Width != len(pf.Chains) {
		return nil, fmt.Errorf("problem: width %d but %d chains", pf.Width, len(pf.Chains))
	}
	if err := chains.ValidateDecomposition(pts, pf.Chains); err != nil {
		return nil, fmt.Errorf("problem: stored decomposition: %w", err)
	}
	if len(pf.Antichain) > 0 {
		if err := chains.ValidateAntichain(pts, pf.Antichain); err != nil {
			return nil, fmt.Errorf("problem: stored antichain: %w", err)
		}
		if pf.ExactWidth && len(pf.Antichain) != pf.Width {
			return nil, fmt.Errorf("problem: antichain of %d points cannot certify width %d", len(pf.Antichain), pf.Width)
		}
	}
	decomp := chains.Decomposition{Chains: pf.Chains, Width: pf.Width, Antichain: pf.Antichain}

	var view domgraph.View
	var matrix *domgraph.Matrix
	switch mode {
	case ModeDense:
		matrix = domgraph.Build(pts)
		if pf.Matrix != nil {
			if err := checkMatrixBlob(pf.Matrix, matrix); err != nil {
				return nil, err
			}
		}
		view = matrix
	case ModeBlocked:
		view = domgraph.NewBlocked(pts, domgraph.BlockedConfig{})
	case ModeImplicit:
		view = domgraph.NewImplicit(pts)
	}

	// A restored Problem keeps its stored decomposition verbatim;
	// PathLoaded with zero stage timings marks it as not freshly
	// prepared.
	st := PrepareStats{DecomposePath: PathLoaded}
	p := assemble(ws, pts, mode, view, matrix, decomp, pf.ExactWidth, st, time.Now())
	p.stats.NetworkNS, p.stats.TotalNS = 0, 0
	return p, nil
}

// checkMatrixBlob decodes a stored matrix blob and holds it to m, the
// relation built from the stored points: structurally (lengths,
// reflexive closure, DAG ⊆ closure) and then bit for bit, naming the
// first pair where they differ.
func checkMatrixBlob(b *matrixBlob, m *domgraph.Matrix) error {
	dom, err := decodeWords(b.Dom)
	if err != nil {
		return fmt.Errorf("problem: matrix dom words: %w", err)
	}
	dag, err := decodeWords(b.Dag)
	if err != nil {
		return fmt.Errorf("problem: matrix dag words: %w", err)
	}
	stored, err := domgraph.MatrixFromWords(m.N(), dom, dag)
	if err != nil {
		return fmt.Errorf("problem: matrix blob: %w", err)
	}
	for i := 0; i < m.N(); i++ {
		for _, rel := range []struct {
			name      string
			got, want []uint64
		}{
			{"closure", stored.DomRow(i), m.DomRow(i)},
			{"dag", stored.DAGRow(i), m.DAGRow(i)},
		} {
			for w := range rel.want {
				if diff := rel.got[w] ^ rel.want[w]; diff != 0 {
					j := w<<6 + bits.TrailingZeros64(diff)
					return fmt.Errorf("problem: matrix blob disagrees with points at %s pair (%d,%d)", rel.name, i, j)
				}
			}
		}
	}
	return nil
}
