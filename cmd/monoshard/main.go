// Command monoshard fronts a fleet of monoserve replicas with the
// sharding router: classify traffic spreads over the fleet by a
// consistent-hash ring with transparent failover, control traffic
// (promotion, learning, model fetch) pins to the primary replica, and
// promoted models replicate from the primary to every replica with
// version-vector agreement.
//
// Usage:
//
//	monoshard -fleet http://h1:8080,http://h2:8080 [-addr :8090]
//	          [-primary 0] [-vnodes 64] [-sync-interval 100ms]
//	          [-health-interval 250ms] [-no-sync]
//
// The ring hashes each request's point onto -vnodes virtual nodes per
// replica, so load spreads near-uniformly and fleet changes move only
// ~1/N of the key space. Every replica holds the whole model, so
// placement only spreads load.
//
// At startup the router has no knowledge of replica state, so the
// first sync round pushes the primary's current model to every
// replica unconditionally, establishing the version vector; from then
// on only replicas behind the primary are pushed. -no-sync disables
// replication entirely for fleets synchronized by other means.
//
// Endpoints mirror monoserve's, plus fleet-level aggregation:
//
//	POST /classify, /classify/batch   ring-placed replica
//	POST /model                       primary, then immediate replication
//	GET  /model, POST /learn          primary
//	GET  /healthz                     aggregate fleet health + versions
//	GET  /stats                       per-replica stats + exact summed totals + version vector
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"monoclass"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "monoshard: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("monoshard", flag.ExitOnError)
	fleet := fs.String("fleet", "", "comma-separated replica base URLs (required)")
	addr := fs.String("addr", ":8090", "router listen address (use 127.0.0.1:0 for an ephemeral port)")
	primary := fs.Int("primary", 0, "index of the promotion-owning replica in -fleet")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per replica on the consistent-hash ring (0: default)")
	syncInterval := fs.Duration("sync-interval", 100*time.Millisecond, "model replication poll cadence")
	healthInterval := fs.Duration("health-interval", 250*time.Millisecond, "replica health poll cadence")
	noSync := fs.Bool("no-sync", false, "disable primary→replica model replication")
	fs.Parse(args)

	endpoints, err := parseFleet(*fleet)
	if err != nil {
		return err
	}
	if *primary < 0 || *primary >= len(endpoints) {
		return fmt.Errorf("-primary %d out of range for %d replicas", *primary, len(endpoints))
	}

	var syncer *monoclass.ShardSyncer
	if !*noSync {
		others := make([]string, 0, len(endpoints)-1)
		for i, ep := range endpoints {
			if i != *primary {
				others = append(others, ep)
			}
		}
		syncer = monoclass.NewShardSyncer(endpoints[*primary], others, monoclass.ShardSyncConfig{
			Interval: *syncInterval,
			OnError: func(endpoint string, err error) {
				fmt.Fprintf(os.Stderr, "monoshard: sync %s: %v\n", endpoint, err)
			},
		})
	}
	router, err := monoclass.NewShardRouter(endpoints, monoclass.ShardRouterConfig{
		VNodes:         *vnodes,
		Primary:        *primary,
		HealthInterval: *healthInterval,
		Syncer:         syncer,
	})
	if err != nil {
		return err
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	bound, err := router.Start(*addr)
	if err != nil {
		return err
	}
	if syncer != nil {
		syncer.Start()
	}
	fmt.Printf("monoshard: routing %d replicas on %s\n", len(endpoints), bound.String())
	<-sig

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = router.Shutdown(shutdownCtx)
	if syncer != nil {
		syncer.Stop()
	}
	return err
}

// parseFleet splits and validates the replica URL list.
func parseFleet(s string) ([]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-fleet is required (comma-separated replica base URLs)")
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		ep := strings.TrimRight(strings.TrimSpace(part), "/")
		if ep == "" {
			continue
		}
		if !strings.HasPrefix(ep, "http://") && !strings.HasPrefix(ep, "https://") {
			return nil, fmt.Errorf("replica %q: want a base URL like http://host:port", part)
		}
		out = append(out, ep)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fleet lists no replicas")
	}
	return out, nil
}
