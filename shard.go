package monoclass

import (
	"context"
	"os"
	"os/signal"
	"syscall"

	"monoclass/internal/shard"
)

// Scale-out layer: a consistent-hash router fronting N serving
// replicas with primary→replica snapshot replication (see
// internal/shard and DESIGN.md §14). These aliases re-export the
// engine types so applications can embed the router without importing
// internal packages.
type (
	// ShardRouter fronts a replica fleet: consistent-hash data plane
	// with failover, primary-pinned control plane, aggregate /stats.
	ShardRouter = shard.Router
	// ShardRouterConfig tunes the router.
	ShardRouterConfig = shard.RouterConfig
	// ShardSyncer replicates promoted models from the primary to the
	// replicas with version-vector agreement.
	ShardSyncer = shard.Syncer
	// ShardSyncConfig tunes the replication loop.
	ShardSyncConfig = shard.SyncConfig
	// ShardCluster is the in-process scale-out unit: N servers on
	// loopback, one syncer, one router.
	ShardCluster = shard.Cluster
	// ShardClusterConfig tunes NewShardCluster.
	ShardClusterConfig = shard.ClusterConfig
)

// NewShardRouter builds a router over replica base URLs.
func NewShardRouter(endpoints []string, cfg ShardRouterConfig) (*ShardRouter, error) {
	return shard.NewRouter(endpoints, cfg)
}

// NewShardSyncer builds the primary→replicas replication loop (call
// Start to launch it, Stop to release it).
func NewShardSyncer(primary string, replicas []string, cfg ShardSyncConfig) *ShardSyncer {
	return shard.NewSyncer(primary, replicas, cfg)
}

// NewShardCluster starts an in-process fleet serving initial: N
// servers on loopback ports, a running syncer, and a router (not yet
// listening — use cluster.Start or cluster.Router().Handler()).
func NewShardCluster(initial *AnchorSet, cfg ShardClusterConfig) (*ShardCluster, error) {
	return shard.NewCluster(initial, cfg)
}

// ServeCluster starts an in-process replica fleet with its fronting
// router listening on addr and blocks until ctx is cancelled or a
// SIGINT/SIGTERM arrives, then drains and shuts the fleet down. The
// scale-out sibling of Serve; announce (optional) receives the
// router's bound address.
func ServeCluster(ctx context.Context, addr string, initial *AnchorSet, cfg ShardClusterConfig, announce func(addr string)) error {
	c, err := shard.NewCluster(initial, cfg)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	bound, err := c.Start(addr)
	if err != nil {
		c.Close()
		return err
	}
	if announce != nil {
		announce(bound.String())
	}
	select {
	case <-ctx.Done():
	case <-sig:
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), serveDrainTimeout)
	defer cancel()
	return c.Shutdown(shutdownCtx)
}
