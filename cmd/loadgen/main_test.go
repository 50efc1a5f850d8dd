package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"monoclass/internal/testutil"
)

// TestRunWritesReport drives the benchmark in-process with tiny
// numbers and checks the report shape end to end.
func TestRunWritesReport(t *testing.T) {
	testutil.CheckGoroutines(t)
	out := filepath.Join(t.TempDir(), "bench.json")
	var log bytes.Buffer
	opt := options{
		out:         out,
		seed:        42,
		kind:        "planted",
		n:           128,
		dim:         2,
		noise:       0.1,
		requests:    200,
		concurrency: 8,
		configs:     "p,b16",
	}
	if err := run(opt, &log); err != nil {
		t.Fatalf("run: %v\n%s", err, log.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("got %d configuration rows, want 2", len(rep.Rows))
	}
	if rep.Seed != 42 || rep.Kind != "planted" || rep.Dim != 2 || rep.N != 128 {
		t.Errorf("report header %+v lost the workload parameters", rep)
	}
	for i, row := range rep.Rows {
		if row.ThroughputRPS <= 0 {
			t.Errorf("row %d: non-positive throughput %v", i, row.ThroughputRPS)
		}
		if row.P50Micros <= 0 || row.P99Micros < row.P50Micros || row.MaxMicros < row.P99Micros {
			t.Errorf("row %d: implausible latency quantiles %+v", i, row)
		}
		if row.Errors != 0 {
			t.Errorf("row %d: %d transport/server errors", i, row.Errors)
		}
		if row.Requests != 200 || row.Concurrency != 8 {
			t.Errorf("row %d: load parameters %+v not recorded", i, row)
		}
	}
	if rep.Rows[0].ClientBatch != 0 || rep.Rows[1].ClientBatch != 16 {
		t.Errorf("config order not preserved: %+v", rep.Rows)
	}
	// Single points are answered one per worker turn.
	if rep.Rows[0].Batches != 200 || rep.Rows[0].MeanBatch != 1 {
		t.Errorf("single-point row: %d batches, mean %g; want 200 batches of 1", rep.Rows[0].Batches, rep.Rows[0].MeanBatch)
	}
	if !strings.Contains(log.String(), "wrote "+out) {
		t.Errorf("log output %q never announced the report", log.String())
	}
}

// TestRunQuickCapsWork: -quick must clamp the per-config request count
// so CI smoke runs stay seconds-scale.
func TestRunQuickCapsWork(t *testing.T) {
	testutil.CheckGoroutines(t)
	out := filepath.Join(t.TempDir(), "bench.json")
	opt := options{
		out:         out,
		quick:       true,
		seed:        1,
		kind:        "1d",
		n:           1 << 20, // clamped to 1024
		requests:    1 << 20, // clamped to 2000
		concurrency: 4,
		configs:     "p",
	}
	var log bytes.Buffer
	start := time.Now()
	if err := run(opt, &log); err != nil {
		t.Fatalf("run: %v\n%s", err, log.String())
	}
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Errorf("quick run took %v", elapsed)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.N != 1024 {
		t.Errorf("n = %d, want quick clamp to 1024", rep.N)
	}
	if got := rep.Rows[0].Requests; got != 2000 {
		t.Errorf("requests = %d, want quick clamp to 2000", got)
	}
}

func TestParseConfigs(t *testing.T) {
	got, err := parseConfigs(" p ,b512, p@2 ,b64@3,b512@2+r2,p+r3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("got %d configs, want 6", len(got))
	}
	if got[0].clientBatch != 0 || got[0].procs != 0 || got[0].spec != "p" {
		t.Errorf("p → %+v", got[0])
	}
	if got[1].clientBatch != 512 || got[1].procs != 0 {
		t.Errorf("b512 → %+v", got[1])
	}
	if got[2].clientBatch != 0 || got[2].procs != 2 {
		t.Errorf("p@2 → %+v", got[2])
	}
	if got[3].clientBatch != 64 || got[3].procs != 3 {
		t.Errorf("b64@3 → %+v", got[3])
	}
	if got[4].clientBatch != 512 || got[4].procs != 2 || got[4].replicas != 2 {
		t.Errorf("b512@2+r2 → %+v", got[4])
	}
	if got[5].clientBatch != 0 || got[5].procs != 0 || got[5].replicas != 3 {
		t.Errorf("p+r3 → %+v", got[5])
	}
	for _, bad := range []string{"", "0", "-1", "3.5", "bogus", "b0", "bx", "p@0", "b512@x", "b512+r1", "b512+rx", "+r2", "pp", "p2"} {
		if _, err := parseConfigs(bad); err == nil {
			t.Errorf("parseConfigs(%q) accepted", bad)
		}
	}
	// The retired MAXBATCH and MAXBATCHxMAXWAIT forms are refused with
	// a pointer to the form that replaced them.
	for _, old := range []string{"1", "32", "32@2", "16+r3", "32x2ms", "1x0s", "32x2ms@2", "16x1ms+r3"} {
		_, err := parseConfigs(old)
		if err == nil || !strings.Contains(err.Error(), "p[@PROCS][+rN]") {
			t.Errorf("parseConfigs(%q) = %v, want an error naming p[@PROCS][+rN]", old, err)
		}
	}
}

// TestRunClientBatch drives a bN configuration end to end: requests
// count points, the batch endpoint answers them in ⌈requests/batch⌉
// calls however they divide among the clients, and the row records
// the client batch size and effective GOMAXPROCS.
func TestRunClientBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, requests := range []int{512, 576} { // 8 calls over 4 clients, and 9
		out := filepath.Join(t.TempDir(), "bench.json")
		var log bytes.Buffer
		opt := options{
			out:         out,
			seed:        7,
			kind:        "planted",
			n:           128,
			dim:         3,
			noise:       0.1,
			requests:    requests,
			concurrency: 4,
			configs:     "b64@1",
		}
		if err := run(opt, &log); err != nil {
			t.Fatalf("run: %v\n%s", err, log.String())
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Rows) != 1 {
			t.Fatalf("got %d rows, want 1", len(rep.Rows))
		}
		row := rep.Rows[0]
		if row.ClientBatch != 64 || row.GOMAXPROCS != 1 {
			t.Errorf("row %+v lost client_batch/gomaxprocs", row)
		}
		if row.Requests != requests || row.Errors != 0 || row.ThroughputRPS <= 0 {
			t.Errorf("implausible client-batch row %+v", row)
		}
		if want := int64((requests + 63) / 64); row.Batches != want {
			t.Errorf("%d requests in batches of 64: the server saw %d batches, want %d", requests, row.Batches, want)
		}
	}
}

// TestRunReplicaRow drives a +rN configuration end to end: the row is
// served by an in-process replica fleet behind the sharding router,
// requests scale by the replica count, and the batch totals come from
// the router's fleet-exact aggregation.
func TestRunReplicaRow(t *testing.T) {
	testutil.CheckGoroutines(t)
	out := filepath.Join(t.TempDir(), "bench.json")
	var log bytes.Buffer
	opt := options{
		out:         out,
		seed:        9,
		kind:        "planted",
		n:           128,
		dim:         2,
		noise:       0.1,
		requests:    256,
		concurrency: 4,
		configs:     "b32+r2",
	}
	if err := run(opt, &log); err != nil {
		t.Fatalf("run: %v\n%s", err, log.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rep.Rows))
	}
	row := rep.Rows[0]
	if row.Replicas != 2 || row.ClientBatch != 32 {
		t.Errorf("row %+v lost replicas/client_batch", row)
	}
	if row.Requests != 512 {
		t.Errorf("requests = %d, want 256 scaled by 2 replicas", row.Requests)
	}
	if row.Errors != 0 || row.Rejected != 0 || row.ThroughputRPS <= 0 {
		t.Errorf("implausible replica row %+v", row)
	}
	// 512 points in batches of 32 → exactly 16 fleet-wide batches from
	// the router's summed totals.
	if row.Batches != 16 || row.MeanBatch != 32 {
		t.Errorf("fleet totals batches=%d mean=%g, want 16 batches of 32", row.Batches, row.MeanBatch)
	}
	if !strings.Contains(log.String(), "replicas=2") {
		t.Errorf("log %q never mentioned the fleet", log.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(options{kind: "nope", configs: "p", out: os.DevNull}, &bytes.Buffer{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := run(options{kind: "1d", n: 8, configs: "garbage", out: os.DevNull}, &bytes.Buffer{}); err == nil {
		t.Error("garbage configs accepted")
	}
}

// TestRunFailsOnErrors: a row with failed requests fails the run once
// the report is written; 429s alone are reported but not fatal. One
// client makes the answer sequence deterministic; status 0 drops the
// connection, a transport error of another type than a bad status.
func TestRunFailsOnErrors(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, tc := range []struct {
		name                     string
		statuses                 []int // answered in turn, call after call
		wantErrors, wantRejected int64
	}{
		{"server errors", []int{200, 500}, 20, 0},
		{"load shedding", []int{200, 429}, 0, 20},
		{"mixed failures", []int{0, 500, 200}, 27, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				switch status := tc.statuses[(calls.Add(1)-1)%int64(len(tc.statuses))]; status {
				case 0:
					conn, _, err := w.(http.Hijacker).Hijack()
					if err == nil {
						conn.Close()
					}
				case 200:
					io.WriteString(w, `{"label":0,"version":1}`)
				default:
					w.WriteHeader(status)
				}
			}))
			defer hs.Close()
			out := filepath.Join(t.TempDir(), "bench.json")
			err := run(options{
				out: out, seed: 1, kind: "1d", n: 64,
				requests: 40, concurrency: 1, configs: "p", url: hs.URL,
			}, &bytes.Buffer{})
			if tc.wantErrors > 0 && (err == nil || !strings.Contains(err.Error(), "requests failed")) {
				t.Errorf("run = %v, want a failure naming the failed requests", err)
			}
			if tc.wantErrors == 0 && err != nil {
				t.Errorf("run = %v, want success", err)
			}
			raw, rerr := os.ReadFile(out)
			if rerr != nil {
				t.Fatalf("report not written: %v", rerr)
			}
			var rep report
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatal(err)
			}
			if row := rep.Rows[0]; row.Errors != tc.wantErrors || row.Rejected != tc.wantRejected {
				t.Errorf("row errors=%d rejected=%d, want %d and %d", row.Errors, row.Rejected, tc.wantErrors, tc.wantRejected)
			}
		})
	}
}
