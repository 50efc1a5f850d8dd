package main

import "time"

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
