package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"monoclass/internal/geom"
	"monoclass/internal/serve"
)

// RouterConfig tunes a Router. The zero value uses a consistent-hash
// ring with DefaultVNodes, 250ms health polls, and a 10s per-attempt
// HTTP timeout.
type RouterConfig struct {
	// VNodes is the ring's virtual-node count per replica (0:
	// DefaultVNodes).
	VNodes int
	// Primary indexes the endpoint that owns promotions: POST /model,
	// POST /learn, and GET /model all go there (default 0).
	Primary int
	// HealthInterval is the background /healthz poll cadence; negative
	// disables the background checker (tests drive CheckHealth
	// directly). Default 250ms.
	HealthInterval time.Duration
	// Client overrides the HTTP client used for proxied requests and
	// health polls (tests inject short timeouts).
	Client *http.Client
	// Syncer, when non-nil, is kicked after each successful promotion
	// and contributes the version vector to /stats and /healthz.
	Syncer *Syncer
	// MaxBodyBytes caps buffered request bodies (default 8 MiB,
	// matching serve.Config).
	MaxBodyBytes int64
}

// Router fronts a fleet of replica endpoints serving the same model
// family: classify traffic spreads over healthy replicas by the
// consistent-hash ring with transparent failover, control traffic
// (promotion, learning, model fetch) pins to the primary, and /stats
// aggregates exact totals across the fleet.
//
//	POST /classify        → ring-placed replica (failover on 5xx/transport error)
//	POST /classify/batch  → ring-placed replica (whole batch, one replica, one version)
//	POST /model           → primary, then Syncer.Kick
//	GET  /model           → primary
//	POST /learn           → primary
//	GET  /healthz         → aggregate fleet health + per-replica versions
//	GET  /stats           → per-replica serve snapshots + exact summed totals + shard counters
//
// Backpressure (429) passes through from the owning replica without
// failover: a full queue is a signal to the client, not a fault.
type Router struct {
	endpoints []string
	primary   int
	ring      *Ring
	client    *http.Client
	syncer    *Syncer
	maxBody   int64

	healthy  []atomic.Bool
	lastVer  []atomic.Int64 // last version seen by a health poll
	routed   []atomic.Int64 // successful proxied data-plane calls per replica
	retries  atomic.Int64   // failover attempts after a replica failed
	failed   atomic.Int64   // requests answered 502 after exhausting the fleet
	healthUp atomic.Int64   // unhealthy→healthy transitions observed by polls
	healthDn atomic.Int64   // healthy→unhealthy transitions (polls or data-path faults)

	interval time.Duration
	mux      *http.ServeMux

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	loopDone  chan struct{}

	mu   sync.Mutex
	ln   net.Listener
	hsrv *http.Server
}

// NewRouter builds a router over replica base URLs ("http://host:port",
// no trailing slash). The background health loop starts with Start (or
// StartHealth for handler-only use); until the first poll every
// replica is presumed healthy.
func NewRouter(endpoints []string, cfg RouterConfig) (*Router, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one replica endpoint")
	}
	if cfg.Primary < 0 || cfg.Primary >= len(endpoints) {
		return nil, fmt.Errorf("shard: primary index %d out of range for %d endpoints", cfg.Primary, len(endpoints))
	}
	ring, err := NewRing(len(endpoints), cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Client == nil {
		// Dedicated transport: Shutdown closes its idle connections,
		// which must not disturb other http.DefaultTransport users.
		cfg.Client = &http.Client{
			Timeout:   10 * time.Second,
			Transport: http.DefaultTransport.(*http.Transport).Clone(),
		}
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 250 * time.Millisecond
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	r := &Router{
		endpoints: append([]string(nil), endpoints...),
		primary:   cfg.Primary,
		ring:      ring,
		client:    cfg.Client,
		syncer:    cfg.Syncer,
		maxBody:   cfg.MaxBodyBytes,
		healthy:   make([]atomic.Bool, len(endpoints)),
		lastVer:   make([]atomic.Int64, len(endpoints)),
		routed:    make([]atomic.Int64, len(endpoints)),
		interval:  cfg.HealthInterval,
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
	}
	for i := range r.healthy {
		r.healthy[i].Store(true)
	}
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /classify", r.handleData)
	r.mux.HandleFunc("POST /classify/batch", r.handleData)
	r.mux.HandleFunc("POST /model", r.handlePromote)
	r.mux.HandleFunc("GET /model", r.handlePrimaryGet)
	r.mux.HandleFunc("POST /learn", r.handlePrimaryPost)
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /stats", r.handleStats)
	return r, nil
}

// Handler returns the router's HTTP handler tree for httptest or an
// external server.
func (r *Router) Handler() http.Handler { return r.mux }

// Endpoints returns the replica base URLs in index order.
func (r *Router) Endpoints() []string { return append([]string(nil), r.endpoints...) }

// Primary returns the promotion-owning endpoint.
func (r *Router) Primary() string { return r.endpoints[r.primary] }

// Endpoint predicts which replica a point routes to right now — the
// first healthy replica in ring order (falling back to the ring's
// first choice when the whole fleet looks down). Tests use
// it to read per-replica state before submitting a request.
func (r *Router) Endpoint(pt geom.Point) string {
	order := r.ring.Order(make([]int, 0, len(r.endpoints)), pt)
	for _, idx := range order {
		if r.healthy[idx].Load() {
			return r.endpoints[idx]
		}
	}
	return r.endpoints[order[0]]
}

// Healthy reports the health flag of replica i.
func (r *Router) Healthy(i int) bool { return r.healthy[i].Load() }

// StartHealth launches the background health loop without a listener
// (handler-only deployments). No-op when disabled or already running.
func (r *Router) StartHealth() {
	if r.interval < 0 {
		return
	}
	r.startOnce.Do(func() { go r.healthLoop() })
}

// Start listens on addr, serves the router in a background goroutine,
// and launches the health loop. Returns the bound address.
func (r *Router) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.hsrv != nil {
		r.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("shard: router already started")
	}
	r.ln = ln
	r.hsrv = &http.Server{Handler: r.mux}
	hsrv := r.hsrv
	r.mu.Unlock()
	go hsrv.Serve(ln)
	r.StartHealth()
	return ln.Addr(), nil
}

// Shutdown stops the listener (if any) and the health loop. In-flight
// proxied requests finish within ctx.
func (r *Router) Shutdown(ctx context.Context) error {
	var err error
	r.mu.Lock()
	hsrv := r.hsrv
	r.hsrv = nil
	r.mu.Unlock()
	if hsrv != nil {
		err = hsrv.Shutdown(ctx)
	}
	r.stopOnce.Do(func() { close(r.stop) })
	r.startOnce.Do(func() { close(r.loopDone) }) // loop never ran
	<-r.loopDone
	// Release outbound keep-alive connections. The transport's dial
	// race can park a never-used spare in the idle pool; server-side
	// that connection is StateNew, which http.Server.Shutdown refuses
	// to reap for 5s — closing it here lets replicas drain instantly.
	r.client.CloseIdleConnections()
	return err
}

// Close is Shutdown with a short deadline, for defer convenience.
func (r *Router) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return r.Shutdown(ctx)
}

func (r *Router) healthLoop() {
	defer close(r.loopDone)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.CheckHealth()
		}
	}
}

// CheckHealth runs one health poll round over every replica, flipping
// health flags on /healthz reachability. Exported so tests and CLIs
// can force convergence instead of waiting out the interval.
func (r *Router) CheckHealth() {
	var wg sync.WaitGroup
	for i := range r.endpoints {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok, ver := r.probe(i)
			was := r.healthy[i].Swap(ok)
			if ver > 0 {
				r.lastVer[i].Store(ver)
			}
			switch {
			case ok && !was:
				r.healthUp.Add(1)
			case !ok && was:
				r.healthDn.Add(1)
			}
		}(i)
	}
	wg.Wait()
}

// probe GETs one replica's /healthz, returning liveness and the
// version it reports.
func (r *Router) probe(i int) (bool, int64) {
	resp, err := r.client.Get(r.endpoints[i] + "/healthz")
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false, 0
	}
	var hz struct {
		Version int64 `json:"version"`
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	return true, hz.Version
}

// ---- data plane ----

// handleData proxies /classify and /classify/batch: buffer the body,
// key it, walk replicas in placement order (healthy first), pass the
// first non-faulty response through verbatim. A client batch routes
// whole to one replica, keyed by its first point, so the response
// carries one coherent (labels, version) pair exactly as direct
// serving does; the key parse reads no further than that point. A body
// the router cannot key gets a nil key and is still forwarded (to the
// ring's order for the empty point), so the error a client sees is
// the replica's, identical to serving without a router.
func (r *Router) handleData(w http.ResponseWriter, req *http.Request) {
	body, err := serve.ReadBody(http.MaxBytesReader(w, req.Body, r.maxBody), req.ContentLength, r.maxBody)
	if err != nil {
		writeRouterError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("reading body: %v", err))
		return
	}
	r.proxyOrdered(w, req, serve.FirstPoint(body, req.URL.Path == "/classify/batch"), body)
}

// proxyOrdered tries replicas in placement order, healthy ones first,
// then (as a last resort) unhealthy ones — a wrongly-flagged replica
// is still better than a 502.
func (r *Router) proxyOrdered(w http.ResponseWriter, req *http.Request, key geom.Point, body []byte) {
	order := r.ring.Order(make([]int, 0, len(r.endpoints)), key)
	attempts := make([]int, 0, len(order))
	for _, idx := range order {
		if r.healthy[idx].Load() {
			attempts = append(attempts, idx)
		}
	}
	for _, idx := range order {
		if !r.healthy[idx].Load() {
			attempts = append(attempts, idx)
		}
	}
	var lastErr string
	for n, idx := range attempts {
		if n > 0 {
			r.retries.Add(1)
		}
		status, hdr, respBody, err := r.forward(req.Context(), idx, req.URL.Path, body)
		if err != nil || status == http.StatusBadGateway || status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout {
			// Transport failure or fault-shaped status: mark and move on.
			// 503 from a draining/shutting-down replica is retryable by
			// construction — the request was not accepted.
			if r.healthy[idx].Swap(false) {
				r.healthDn.Add(1)
			}
			if err != nil {
				lastErr = err.Error()
			} else {
				lastErr = fmt.Sprintf("%s: status %d", r.endpoints[idx], status)
			}
			continue
		}
		r.routed[idx].Add(1)
		passThrough(w, status, hdr, respBody)
		return
	}
	r.failed.Add(1)
	writeRouterError(w, http.StatusBadGateway, fmt.Sprintf("no replica available: %s", lastErr))
}

// forward POSTs body to one replica and buffers the response.
func (r *Router) forward(ctx context.Context, idx int, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.endpoints[idx]+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := serve.ReadBody(resp.Body, resp.ContentLength, r.maxBody)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// ---- control plane ----

// handlePromote forwards POST /model to the primary and kicks the
// syncer on success, so a promotion propagates to the fleet
// immediately rather than on the next poll tick.
func (r *Router) handlePromote(w http.ResponseWriter, req *http.Request) {
	status := r.proxyPrimary(w, req)
	if status == http.StatusOK && r.syncer != nil {
		r.syncer.Kick()
	}
}

func (r *Router) handlePrimaryPost(w http.ResponseWriter, req *http.Request) {
	r.proxyPrimary(w, req)
}

// proxyPrimary forwards the request to the primary verbatim (method,
// path, body) and passes the response through, returning the status.
func (r *Router) proxyPrimary(w http.ResponseWriter, req *http.Request) int {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.maxBody))
	if err != nil {
		writeRouterError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("reading body: %v", err))
		return http.StatusRequestEntityTooLarge
	}
	preq, err := http.NewRequestWithContext(req.Context(), req.Method, r.Primary()+req.URL.Path, bytes.NewReader(body))
	if err != nil {
		writeRouterError(w, http.StatusInternalServerError, err.Error())
		return http.StatusInternalServerError
	}
	preq.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(preq)
	if err != nil {
		writeRouterError(w, http.StatusBadGateway, fmt.Sprintf("primary unreachable: %v", err))
		return http.StatusBadGateway
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		writeRouterError(w, http.StatusBadGateway, fmt.Sprintf("primary response: %v", err))
		return http.StatusBadGateway
	}
	passThrough(w, resp.StatusCode, resp.Header, respBody)
	return resp.StatusCode
}

func (r *Router) handlePrimaryGet(w http.ResponseWriter, req *http.Request) {
	r.proxyPrimary(w, req)
}

// ---- health + stats aggregation ----

// ReplicaHealth is one replica's row in the aggregate /healthz.
type ReplicaHealth struct {
	Endpoint string `json:"endpoint"`
	Healthy  bool   `json:"healthy"`
	Primary  bool   `json:"primary"`
	// Version is the model version the last successful health poll
	// observed (0 before the first poll).
	Version int64 `json:"version"`
	// Acked is the syncer's acknowledged primary version for this
	// replica (absent without a syncer; the primary acks itself).
	Acked int64 `json:"acked,omitempty"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	rows := make([]ReplicaHealth, len(r.endpoints))
	healthyN := 0
	for i, ep := range r.endpoints {
		rows[i] = ReplicaHealth{
			Endpoint: ep,
			Healthy:  r.healthy[i].Load(),
			Primary:  i == r.primary,
			Version:  r.lastVer[i].Load(),
		}
		if r.syncer != nil && i != r.primary {
			rows[i].Acked = r.syncer.Acked(ep)
		}
		if rows[i].Healthy {
			healthyN++
		}
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case healthyN == 0:
		status = "down"
		code = http.StatusServiceUnavailable
	case healthyN < len(rows):
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"healthy":  healthyN,
		"replicas": rows,
	})
}

// ReplicaStats is one replica's row in the aggregate /stats.
type ReplicaStats struct {
	Endpoint string `json:"endpoint"`
	Healthy  bool   `json:"healthy"`
	// Routed counts data-plane calls this router successfully proxied
	// to the replica.
	Routed int64 `json:"routed"`
	// Stats is the replica's own /stats snapshot (absent when the
	// replica did not answer; Error says why).
	Stats *serve.StatsSnapshot `json:"stats,omitempty"`
	Error string               `json:"error,omitempty"`
}

// Totals is the exact cross-replica sum of the serve counter block.
// Each replica's snapshot is internally consistent (serve.Stats
// snapshots are linearized against updates), so the sums are exact for
// all traffic the fleet has finished processing.
type Totals struct {
	Requests    int64   `json:"requests"`
	Rejected    int64   `json:"rejected"`
	BadRequests int64   `json:"bad_requests"`
	Batches     int64   `json:"batches"`
	BatchPoints int64   `json:"batch_points"`
	MeanBatch   float64 `json:"mean_batch"`
	Swaps       int64   `json:"swaps"`
}

// RouterStats reports the router's own counters.
type RouterStats struct {
	Retries   int64   `json:"retries"`
	Failed    int64   `json:"failed"`
	HealthUps int64   `json:"health_ups"`
	HealthDns int64   `json:"health_downs"`
	Routed    []int64 `json:"routed"`
	// Sync counters (zero without a syncer).
	SyncRounds   int64 `json:"sync_rounds,omitempty"`
	SyncPushes   int64 `json:"sync_pushes,omitempty"`
	SyncFailures int64 `json:"sync_failures,omitempty"`
}

// AggregateStats is the router's /stats shape.
type AggregateStats struct {
	Replicas []ReplicaStats `json:"replicas"`
	Totals   Totals         `json:"totals"`
	Router   RouterStats    `json:"router"`
	// Sync is the version vector (absent without a syncer).
	Sync []ReplicaSync `json:"sync,omitempty"`
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	agg := r.AggregateStats(req.Context())
	writeJSON(w, http.StatusOK, agg)
}

// AggregateStats polls every replica's /stats in parallel and sums the
// counter totals.
func (r *Router) AggregateStats(ctx context.Context) AggregateStats {
	rows := make([]ReplicaStats, len(r.endpoints))
	var wg sync.WaitGroup
	for i, ep := range r.endpoints {
		wg.Add(1)
		go func(i int, ep string) {
			defer wg.Done()
			rows[i] = ReplicaStats{Endpoint: ep, Healthy: r.healthy[i].Load(), Routed: r.routed[i].Load()}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep+"/stats", nil)
			if err != nil {
				rows[i].Error = err.Error()
				return
			}
			resp, err := r.client.Do(req)
			if err != nil {
				rows[i].Error = err.Error()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				rows[i].Error = fmt.Sprintf("status %d", resp.StatusCode)
				return
			}
			var snap serve.StatsSnapshot
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				rows[i].Error = err.Error()
				return
			}
			rows[i].Stats = &snap
		}(i, ep)
	}
	wg.Wait()

	agg := AggregateStats{Replicas: rows}
	for _, row := range rows {
		if row.Stats == nil {
			continue
		}
		agg.Totals.Requests += row.Stats.Requests
		agg.Totals.Rejected += row.Stats.Rejected
		agg.Totals.BadRequests += row.Stats.BadRequests
		agg.Totals.Batches += row.Stats.Batches
		agg.Totals.BatchPoints += row.Stats.BatchPoints
		agg.Totals.Swaps += row.Stats.Swaps
	}
	if agg.Totals.Batches > 0 {
		agg.Totals.MeanBatch = float64(agg.Totals.BatchPoints) / float64(agg.Totals.Batches)
	}
	agg.Router = RouterStats{
		Retries:   r.retries.Load(),
		Failed:    r.failed.Load(),
		HealthUps: r.healthUp.Load(),
		HealthDns: r.healthDn.Load(),
		Routed:    make([]int64, len(r.endpoints)),
	}
	for i := range r.endpoints {
		agg.Router.Routed[i] = r.routed[i].Load()
	}
	if r.syncer != nil {
		agg.Sync = r.syncer.Vector()
		agg.Router.SyncRounds, agg.Router.SyncPushes, agg.Router.SyncFailures = r.syncer.Stats()
	}
	return agg
}

// ---- helpers ----

// passThrough copies a buffered upstream response to the client,
// preserving status, content type, and the model metadata headers.
func passThrough(w http.ResponseWriter, status int, hdr http.Header, body []byte) {
	for _, k := range []string{"Content-Type", "Retry-After", "X-Model-Version", "X-Model-Width", "X-Model-Exact-Width", "X-Model-Decompose-Path"} {
		if v := hdr.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

func writeRouterError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
