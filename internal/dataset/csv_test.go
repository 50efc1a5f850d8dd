package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"monoclass/internal/geom"
	"monoclass/internal/testutil"
)

// chunkedCSV is twelve d = 2 records behind two blank lines, ended in
// turn by "\n", "\r\n\r\n" and "\n\n" except the last, which has no
// line end. It returns each record's text, the line end after it and
// the number of its line.
func chunkedCSV() (recs []string, ends []string, lines []int) {
	line := 3
	for i := 0; i < 12; i++ {
		recs = append(recs, fmt.Sprintf("%d.5,%d,%d,%d", i, 12-i, i%2, 1+i%3))
		lines = append(lines, line)
		end := []string{"\n", "\r\n\r\n", "\n\n"}[i%3]
		if i == 11 {
			end = ""
		}
		ends = append(ends, end)
		line += strings.Count(end, "\n")
	}
	return recs, ends, lines
}

func joinCSV(recs, ends []string) string {
	var b strings.Builder
	b.WriteString("\n\n")
	for i := range recs {
		b.WriteString(recs[i] + ends[i])
	}
	return b.String()
}

// TestParseCSVChunks cuts one input with blank lines, CRLF line ends
// and no final newline into 1 to 6 chunks: every count reads the same
// set, each chunk holds a record, a bad label in any record is
// reported on its line, and of two bad records the earlier one wins,
// also when the later one sits in an earlier-finishing chunk. No
// goroutine outlives a parse.
func TestParseCSVChunks(t *testing.T) {
	testutil.CheckGoroutines(t)
	recs, ends, lines := chunkedCSV()
	in := joinCSV(recs, ends)
	want, err := parseCSV([]byte(in), 1)
	if err != nil || len(want) != len(recs) {
		t.Fatalf("one chunk: %d points, %v", len(want), err)
	}
	for i, wp := range want {
		if wp.P[0] != float64(i)+0.5 || wp.P[1] != float64(12-i) || wp.Label != geom.Label(i%2) || wp.Weight != float64(1+i%3) {
			t.Fatalf("one chunk: point %d is %v", i, wp)
		}
	}
	for chunks := 1; chunks <= 6; chunks++ {
		s := csvScanner{buf: []byte(in)}
		if _, _, err := s.record(nil); err != nil {
			t.Fatal(err)
		}
		parts, _ := cutCSV([]byte(in), s.pos, s.lines+1, chunks, 2)
		if len(parts) != chunks {
			t.Fatalf("%d chunks asked, %d cut", chunks, len(parts))
		}
		for k, c := range parts {
			end := lines[len(lines)-1] + 1
			if k+1 < len(parts) {
				end = parts[k+1].line
			}
			held := 0
			for _, l := range lines {
				if c.line <= l && l < end {
					held++
				}
			}
			if held == 0 {
				t.Fatalf("%d chunks: chunk %d (lines %d–%d) holds no record", chunks, k, c.line, end-1)
			}
		}
		got, err := parseCSV([]byte(in), chunks)
		if err != nil || !sameSet(got, want) {
			t.Fatalf("%d chunks: read %v, %v; want %v", chunks, got, err, want)
		}
		for i := range recs {
			bad := append([]string(nil), recs...)
			bad[i] = fmt.Sprintf("%d.5,%d,7,%d", i, 12-i, 1+i%3)
			first := fmt.Sprintf(`dataset: line %d: invalid label "7"`, lines[i])
			if _, err := parseCSV([]byte(joinCSV(bad, ends)), chunks); fmt.Sprint(err) != first {
				t.Fatalf("%d chunks, bad record %d: error %v, want %s", chunks, i, err, first)
			}
			for j := i + 1; j < len(recs); j++ {
				worse := append([]string(nil), bad...)
				worse[j] = worse[j] + ",9"
				if _, err := parseCSV([]byte(joinCSV(worse, ends)), chunks); fmt.Sprint(err) != first {
					t.Fatalf("%d chunks, bad records %d and %d: error %v, want %s", chunks, i, j, err, first)
				}
			}
		}
	}
}

// writeRows writes rows d = 2 records of about 40 bytes to a temp file.
func writeRows(t *testing.T, rows int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rows)))
	ws := make(geom.WeightedSet, rows)
	for i := range ws {
		ws[i] = geom.WeightedPoint{P: geom.Point{rng.Float64(), rng.Float64()}, Label: geom.Label(i % 2), Weight: 1}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ws); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("rows%d.csv", rows))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadCSVFileAllocs reads a 1 KB and a 1 MB file: the read buffer
// is sized from the file's Stat, so both make the same number of
// allocations. testing.AllocsPerRun runs at GOMAXPROCS 1, so both are
// one chunk.
func TestReadCSVFileAllocs(t *testing.T) {
	allocs := func(path string) float64 {
		return testing.AllocsPerRun(5, func() {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := ReadCSV(f); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(writeRows(t, 25)), allocs(writeRows(t, 25_000))
	if small != large {
		t.Errorf("ReadCSV made %v allocations over a 1 KB file and %v over a 1 MB one", small, large)
	}
}

// TestParseCSVAllocs: the allocations of a parse depend on the chunk
// count, not the row count.
func TestParseCSVAllocs(t *testing.T) {
	testutil.CheckGoroutines(t)
	for chunks := 1; chunks <= 4; chunks++ {
		allocs := func(rows int) float64 {
			in, err := os.ReadFile(writeRows(t, rows))
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := parseCSV(in, chunks); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(100), allocs(20_000); small != large {
			t.Errorf("%d chunks: %v allocations over 100 rows, %v over 20,000", chunks, small, large)
		}
	}
}

// BenchmarkParseCSVGrain parses d = 2 inputs of 8 KiB to 256 KiB in
// one chunk and in two: the sweep behind parseGrain (bench_results.md
// K17).
func BenchmarkParseCSVGrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var all bytes.Buffer
	for all.Len() < 256<<10 {
		fmt.Fprintf(&all, "%v,%v,%d,%d\n", 64*rng.Float64(), 64*rng.Float64(), rng.Intn(2), 1+rng.Intn(4))
	}
	for size := 8 << 10; size <= 256<<10; size *= 2 {
		in := all.Bytes()[:size]
		in = in[:bytes.LastIndexByte(in, '\n')+1]
		for chunks := 1; chunks <= 2; chunks++ {
			b.Run(fmt.Sprintf("KiB=%d/chunks=%d", size>>10, chunks), func(b *testing.B) {
				b.SetBytes(int64(len(in)))
				for i := 0; i < b.N; i++ {
					if _, err := parseCSV(in, chunks); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
