package monoclass

import (
	"context"
	"os"
	"os/signal"
	"syscall"
	"time"

	"monoclass/internal/serve"
)

// Serving layer: a hot-swappable model registry plus an HTTP
// classification service (see internal/serve and DESIGN.md §9).
// These aliases re-export the engine types so applications can embed
// the server without importing internal packages.
type (
	// Registry publishes immutable AnchorSet snapshots to concurrent
	// readers behind one atomic pointer; Swap hot-promotes a new model
	// without ever blocking in-flight classifies.
	Registry = serve.Registry
	// ModelSnapshot is one immutable (version, model) registry entry.
	ModelSnapshot = serve.Snapshot
	// AuditFunc gates model promotion; see SpotAudit and HoldoutAudit.
	AuditFunc = serve.AuditFunc
	// Server is the HTTP classification service.
	Server = serve.Server
	// ServeConfig tunes the server (batching, audit gate, limits).
	ServeConfig = serve.Config
	// BatcherConfig tunes the single-point dispatch pipeline.
	BatcherConfig = serve.BatcherConfig
	// ServeStats is the JSON shape of the /stats endpoint.
	ServeStats = serve.StatsSnapshot
)

// NewRegistry creates a model registry serving initial as version 1;
// audit (optional, may be nil) gates each subsequent Swap.
func NewRegistry(initial *AnchorSet, audit AuditFunc) (*Registry, error) {
	return serve.NewRegistry(initial, audit)
}

// NewServer builds (but does not start) the HTTP serving layer over an
// initial model. Use srv.Handler() with your own http.Server, or
// srv.Start(addr) + srv.Shutdown(ctx) for the managed listener.
func NewServer(initial *AnchorSet, cfg ServeConfig) (*Server, error) {
	return serve.NewServer(initial, cfg)
}

// SpotAudit returns a promotion gate that re-checks monotonicity of
// every candidate model over the probe set plus both models' anchors.
func SpotAudit(probes []Point) AuditFunc { return serve.SpotAudit(probes) }

// HoldoutAudit returns a promotion gate rejecting candidates whose
// weighted error on the labeled holdout exceeds maxWErr.
func HoldoutAudit(holdout WeightedSet, maxWErr float64) AuditFunc {
	return serve.HoldoutAudit(holdout, maxWErr)
}

// ChainAudits composes promotion gates; the first rejection wins.
func ChainAudits(fns ...AuditFunc) AuditFunc { return serve.ChainAudits(fns...) }

// Serve starts the classification service on addr and blocks until
// ctx is cancelled or a SIGINT/SIGTERM arrives, then drains in-flight
// work and shuts down gracefully. announce (optional, may be nil) is
// called once with the bound address — pass a logger or a test hook.
func Serve(ctx context.Context, addr string, initial *AnchorSet, cfg ServeConfig, announce func(addr string)) error {
	srv, err := NewServer(initial, cfg)
	if err != nil {
		return err
	}
	// Install the signal handler before announcing the address: a
	// supervisor that interrupts as soon as it sees the banner must hit
	// the graceful drain, not the default process-killing disposition.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	bound, err := srv.Start(addr)
	if err != nil {
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
	return srv.Shutdown(shutdownCtx)
}

// serveDrainTimeout bounds graceful drain in Serve.
const serveDrainTimeout = 10 * time.Second
