package serve

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"monoclass/internal/online"
	"monoclass/internal/problem"
)

// histBuckets is the number of power-of-two batch-size histogram
// buckets: bucket i counts batches of size in (2^(i-1), 2^i], so
// bucket 0 is size 1, bucket 1 is size 2, bucket 2 is sizes 3–4, and
// the last bucket absorbs everything ≥ 2^(histBuckets-1)+1.
const histBuckets = 11

// Stats is the server's shared counter block. Every field is updated
// with atomics, and every update additionally holds mu in read mode —
// an inverted-RWMutex seqlock: concurrent writers share the read lock
// (two atomic ops of overhead, no contention between them), while
// snapshotCounters takes the write lock, excluding all in-flight
// updates. A snapshot is therefore internally consistent: it observes
// every multi-counter update (ObserveBatch touches batches,
// batchPoints, and a histogram bucket together) entirely or not at
// all, so invariants like Σhist == batches hold exactly in every
// snapshot, not just at quiescence. The shard router's /stats
// aggregation sums these snapshots across replicas and asserts exact
// totals.
type Stats struct {
	mu          sync.RWMutex // writers RLock, snapshot Lock (see above)
	requests    atomic.Int64 // points accepted for classification
	rejected    atomic.Int64 // points turned away with 429 (queue full)
	badRequests atomic.Int64 // malformed/oversized requests (4xx other than 429)
	batches     atomic.Int64 // dispatched batches (batcher + client batches)
	batchPoints atomic.Int64 // points across all dispatched batches
	hist        [histBuckets]atomic.Int64
}

// ObserveBatch records one dispatched batch of the given size.
func (s *Stats) ObserveBatch(size int) {
	if size <= 0 {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.batches.Add(1)
	s.batchPoints.Add(int64(size))
	b := bits.Len(uint(size - 1)) // ceil(log2(size)); 0 for size 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	s.hist[b].Add(1)
}

// AddRequests counts n accepted classification points.
func (s *Stats) AddRequests(n int) {
	s.mu.RLock()
	s.requests.Add(int64(n))
	s.mu.RUnlock()
}

// AddRejected counts n points rejected for backpressure.
func (s *Stats) AddRejected(n int) {
	s.mu.RLock()
	s.rejected.Add(int64(n))
	s.mu.RUnlock()
}

// AddBadRequest counts one malformed request.
func (s *Stats) AddBadRequest() {
	s.mu.RLock()
	s.badRequests.Add(1)
	s.mu.RUnlock()
}

// StatsSnapshot is the JSON shape of /stats. BatchSizeHist maps the
// inclusive upper bound of each power-of-two bucket ("1", "2", "4",
// ...) to the number of batches that landed in it; empty buckets are
// omitted.
type StatsSnapshot struct {
	Requests      int64            `json:"requests"`
	Rejected      int64            `json:"rejected"`
	BadRequests   int64            `json:"bad_requests"`
	Batches       int64            `json:"batches"`
	BatchPoints   int64            `json:"batch_points"`
	MeanBatch     float64          `json:"mean_batch"`
	BatchSizeHist map[string]int64 `json:"batch_size_hist"`
	QueueDepth    int              `json:"queue_depth"`
	QueueCap      int              `json:"queue_cap"`
	ModelVersion  int64            `json:"model_version"`
	ModelAnchors  int              `json:"model_anchors"`
	Swaps         int64            `json:"swaps"`
	AuditRejects  int64            `json:"audit_rejects"`
	UptimeMillis  int64            `json:"uptime_ms"`
	// Online reports the incremental learning pipeline; omitted when
	// online learning is not enabled.
	Online *OnlineStats `json:"online,omitempty"`
	// Prepare echoes Config.Prepare — how the served model's training
	// instance was prepared (stage timings, decomposition path,
	// warm-start counters); omitted when the server was handed a model
	// without its provenance.
	Prepare *problem.PrepareStats `json:"prepare,omitempty"`
}

// OnlineStats is the /stats section for the learning pipeline: the
// updater counters plus the intake queue gauges.
type OnlineStats struct {
	online.StatsSnapshot
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
}

// snapshotCounters fills the counter-derived fields of a snapshot.
// Taking mu exclusively makes the read a linearization point: every
// completed update is visible, no partially applied one is.
func (s *Stats) snapshotCounters(out *StatsSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out.Requests = s.requests.Load()
	out.Rejected = s.rejected.Load()
	out.BadRequests = s.badRequests.Load()
	out.Batches = s.batches.Load()
	out.BatchPoints = s.batchPoints.Load()
	if out.Batches > 0 {
		out.MeanBatch = float64(out.BatchPoints) / float64(out.Batches)
	}
	out.BatchSizeHist = map[string]int64{}
	for i := range s.hist {
		if n := s.hist[i].Load(); n > 0 {
			out.BatchSizeHist[bucketLabel(i)] = n
		}
	}
}

// bucketLabel renders the inclusive upper bound of histogram bucket i.
func bucketLabel(i int) string {
	if i == histBuckets-1 {
		return strconv.Itoa(1<<(histBuckets-2)+1) + "+"
	}
	return strconv.Itoa(1 << i)
}
