package shard

import (
	"context"
	"fmt"
	"net"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/serve"
)

// ClusterConfig tunes NewCluster.
type ClusterConfig struct {
	// Replicas is the fleet size (≥ 1). Replica 0 is the primary.
	Replicas int
	// Serve configures every replica's serving stack. Audit and Online
	// apply to the primary only: promotions are audited once at the
	// primary and replicas trust replication (a replica-side audit gate
	// could veto an already-promoted model and wedge the version
	// vector), and learning feeds the primary registry whose swaps the
	// syncer fans out.
	Serve serve.Config
	// Router tunes the fronting router (ring vnodes, health cadence).
	// Primary and Syncer are set by the cluster.
	Router RouterConfig
	// SyncInterval is the replication poll cadence (default 100ms);
	// promotions through the router also kick an immediate round.
	SyncInterval time.Duration
}

// Cluster is the in-process scale-out unit: N serve.Servers on
// loopback ports (real HTTP between every hop, so traffic is shaped
// exactly as the cross-process deployment), one Syncer replicating the
// primary's promotions, and one Router fronting the fleet. monoserve
// -replicas and loadgen's multi-replica rows are Clusters; the
// separate-process deployment wires the same Router+Syncer through
// cmd/monoshard instead.
type Cluster struct {
	servers []*serve.Server
	addrs   []string
	router  *Router
	syncer  *Syncer
}

// NewCluster starts replicas serving initial (all at local version 1,
// so the version vector begins seeded) plus the syncer and router.
// The router is not yet listening: use Handler, or Start for a
// managed listener. Call Close to tear everything down.
func NewCluster(initial *classifier.AnchorSet, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("shard: cluster needs ≥ 1 replica, got %d", cfg.Replicas)
	}
	c := &Cluster{}
	for i := 0; i < cfg.Replicas; i++ {
		scfg := cfg.Serve
		if i != 0 {
			scfg.Audit = nil
			scfg.Online = nil
		}
		srv, err := serve.NewServer(initial, scfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			srv.Close()
			c.Close()
			return nil, err
		}
		c.addrs = append(c.addrs, "http://"+addr.String())
	}
	c.syncer = NewSyncer(c.addrs[0], c.addrs[1:], SyncConfig{
		Interval:    cfg.SyncInterval,
		SeedVersion: 1, // every replica just started from initial
	})
	rcfg := cfg.Router
	rcfg.Primary = 0
	rcfg.Syncer = c.syncer
	router, err := NewRouter(c.addrs, rcfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.router = router
	c.syncer.Start()
	return c, nil
}

// Router returns the fronting router.
func (c *Cluster) Router() *Router { return c.router }

// Syncer returns the replication loop.
func (c *Cluster) Syncer() *Syncer { return c.syncer }

// Primary returns the primary replica's server (registry access for
// CLIs and tests).
func (c *Cluster) Primary() *serve.Server { return c.servers[0] }

// Servers returns every replica server, primary first.
func (c *Cluster) Servers() []*serve.Server { return c.servers }

// Addrs returns every replica's base URL, primary first.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// Start makes the router listen on addr (the fleet's public face).
func (c *Cluster) Start(addr string) (net.Addr, error) {
	bound, err := c.router.Start(addr)
	if err != nil {
		return nil, err
	}
	return bound, nil
}

// Close tears the cluster down: router first (no new traffic), then
// the syncer, then every replica (each drains its own queues).
func (c *Cluster) Close() error {
	var first error
	if c.router != nil {
		if err := c.router.Close(); err != nil && first == nil {
			first = err
		}
	}
	if c.syncer != nil {
		c.syncer.Stop()
	}
	for _, srv := range c.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shutdown is Close bounded by ctx for the router drain.
func (c *Cluster) Shutdown(ctx context.Context) error {
	var first error
	if c.router != nil {
		if err := c.router.Shutdown(ctx); err != nil {
			first = err
		}
	}
	if c.syncer != nil {
		c.syncer.Stop()
	}
	for _, srv := range c.servers {
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}
