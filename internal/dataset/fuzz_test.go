package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the CSV reader: it must never
// panic, and everything it accepts must round-trip losslessly.
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
	f.Fuzz(func(t *testing.T, data string) {
		ws, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := ws.Validate(); err != nil {
			t.Fatalf("accepted set fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ws); err != nil {
			t.Fatalf("accepted set fails to serialize: %v", err)
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
