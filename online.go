package monoclass

import (
	"monoclass/internal/online"
	"monoclass/internal/serve"
)

// Online learning: incremental insert/delete of labeled points with
// periodic exact re-solves and drift-bounded interim models (see
// internal/online and DESIGN.md §11). These aliases re-export the
// engine types so applications can embed the updater without
// importing internal packages; the serving layer exposes the same
// machinery over HTTP as POST /learn (ServeConfig.Online).
type (
	// Delta is one insert or delete of a weighted labeled point.
	Delta = online.Delta
	// DeltaOp selects between OpInsert and OpDelete.
	DeltaOp = online.Op
	// OnlineUpdater maintains an optimal (or drift-bounded) monotone
	// classifier over a mutating weighted multiset.
	OnlineUpdater = online.Updater
	// OnlineConfig tunes the rebuild policy and publication hook.
	OnlineConfig = online.Config
	// OnlinePipeline is the asynchronous bounded-queue front of an
	// updater, with batcher-style backpressure and lossless drain;
	// Server.Learner returns the one behind POST /learn.
	OnlinePipeline = online.Pipeline
	// OnlineStats is the updater's counter snapshot (also embedded in
	// the /stats "online" section).
	OnlineStats = online.StatsSnapshot
	// ServeOnlineConfig enables POST /learn on a Server
	// (ServeConfig.Online).
	ServeOnlineConfig = serve.OnlineConfig
)

// Delta operations.
const (
	OpInsert = online.OpInsert
	OpDelete = online.OpDelete
)

// Online pipeline errors.
var (
	// ErrDeltaNotFound reports a delete whose (point, label) pair has
	// no live occurrence.
	ErrDeltaNotFound = online.ErrNotFound
	// ErrLearnQueueFull reports fail-fast backpressure on the bounded
	// delta queue (HTTP 429 on /learn).
	ErrLearnQueueFull = online.ErrQueueFull
	// ErrLearnClosed reports a pipeline that has begun shutdown.
	ErrLearnClosed = online.ErrClosed
)

// NewOnlineUpdater builds an incremental learner over the initial
// multiset (which may be empty) and runs one exact solve; deltas then
// arrive via Apply/ApplyBatch.
func NewOnlineUpdater(dim int, initial WeightedSet, cfg OnlineConfig) (*OnlineUpdater, error) {
	return online.NewUpdater(dim, initial, cfg)
}
