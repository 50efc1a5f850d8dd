package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tiny shrinks a workload so the whole pipeline runs in about a second.
func tiny(w workload) workload {
	if w.dim <= 2 {
		w.n = 2048
	} else {
		w.n = 512
	}
	return w
}

// declared reads the metric names BENCHMARK.json promises, by section.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(ms map[string]metric) []string {
	var out []string
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// TestEveryMetricAtTinySize runs every workload untraced and traced at
// tiny sizes: all answers are correct and each run prints exactly the
// metrics BENCHMARK.json declares for it.
func TestEveryMetricAtTinySize(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(tiny(w), options{seed: 7, seconds: 1, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, rep.failed, rep.attempted, rep.errs)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := names(rep.metrics); strings.Join(got, ",") != strings.Join(sorted(want), ",") {
				t.Errorf("%s traced=%v: metrics\n got %v\nwant %v", w.name, traced, got, sorted(want))
			}
			for name, m := range rep.metrics {
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w.name, name)
				}
			}
		}
	}
}

// TestWrongOracleTripsGate corrupts the oracle's weighted error: every
// train must then fail its gate, and the run must report failures.
func TestWrongOracleTripsGate(t *testing.T) {
	w, err := findWorkload("train-noisy-d3")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(tiny(w), options{seed: 7, seconds: 0.5, oracleBias: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed < w.rounds {
		t.Fatalf("corrupted oracle: %d failures, want every one of ≥%d trains", rep.failed, w.rounds)
	}
	if len(rep.errs) == 0 || !strings.Contains(rep.errs[0].Error(), "oracle") {
		t.Fatalf("gate errors %v do not name the oracle", rep.errs)
	}
}

// TestBadArgumentsExitNonZero checks the command refuses what it
// cannot run without printing a result line.
func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-churn", "--trace", "2"},
		{"--workload", "serve-churn", "--seconds", "0"},
	} {
		var out, errOut strings.Builder
		if code := runMain(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
