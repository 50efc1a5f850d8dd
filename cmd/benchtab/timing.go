package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// benchEnv heads every JSON report benchtab writes: when, on what, and
// from which seed.
type benchEnv struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	Seed        int64  `json:"seed"`
}

func newBenchEnv(seed int64) benchEnv {
	return benchEnv{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Seed:        seed,
	}
}

// writeReport writes a report as indented JSON to path.
func writeReport(path string, report any) error {
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// benchResult is one timed benchmark row in the -classify, -maxflow
// and -online reports.
type benchResult struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
}

// timeIt runs fn repeatedly until minTime has elapsed (at least
// minIters times) and returns the measured cost per call.
func timeIt(minTime time.Duration, minIters int, fn func()) benchResult {
	fn() // warm up caches and the allocator before timing
	iters := 0
	start := time.Now()
	for time.Since(start) < minTime || iters < minIters {
		fn()
		iters++
	}
	elapsed := time.Since(start)
	return benchResult{
		Iterations: iters,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(iters),
	}
}
