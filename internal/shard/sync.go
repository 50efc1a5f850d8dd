package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// SyncConfig tunes a Syncer. The zero value polls every 100ms with a
// 5s per-request timeout.
type SyncConfig struct {
	// Interval is the poll cadence; Kick forces an immediate round
	// (the router kicks after every successful promotion, making the
	// loop push-on-promote with poll as the catch-up path).
	Interval time.Duration
	// Client overrides the HTTP client (tests inject short timeouts).
	Client *http.Client
	// SeedVersion, when > 0, declares that every replica already
	// serves the primary's model of that version as its local version
	// 1 — the in-process Cluster starts all replicas from the same
	// initial model, so their vectors begin acknowledged. With
	// SeedVersion 0 the replicas' own initial models are unknown to
	// the vector (local version 1 unmapped) and the first sync round
	// pushes the primary's current model unconditionally.
	SeedVersion int64
	// OnError receives per-replica sync failures (nil: dropped).
	// Failures are retried on the next round, never fatal.
	OnError func(endpoint string, err error)
}

// ReplicaSync is one replica's entry in the version vector.
type ReplicaSync struct {
	// Endpoint is the replica's base URL.
	Endpoint string `json:"endpoint"`
	// Acked is the highest primary version the replica has
	// acknowledged (0: nothing replicated yet).
	Acked int64 `json:"acked"`
	// Local maps the replica's registry-assigned versions to the
	// primary versions they carry. Replica registries number their own
	// promotions independently (a replica that missed intermediate
	// versions during an outage re-converges with fewer local swaps),
	// so the mapping — not the raw local counter — is what gives a
	// served version process-global meaning.
	Local map[int64]int64 `json:"local"`
}

// Syncer replicates promoted models from a primary to N replicas over
// the existing JSON /model GET/POST endpoints: each round polls the
// primary once (GET /model, version from the X-Model-Version header)
// and pushes the body to every replica that has not yet acknowledged
// that version. Pushes to one replica are serialized and strictly
// monotone in primary version, which is the version-vector agreement
// the storm test leans on: once a replica acknowledges primary
// version P, it is never again observed serving a version older than
// P, because its registry only ever swaps forward and the syncer never
// re-pushes an older snapshot.
type Syncer struct {
	primary  string
	replicas []string
	interval time.Duration
	client   *http.Client
	onError  func(string, error)

	mu    sync.Mutex
	acked map[string]int64
	local map[string]map[int64]int64
	// per-replica push serialization, so a delayed push cannot be
	// overtaken by a newer one and regress the replica's version.
	pushMu map[string]*sync.Mutex

	rounds   int64
	pushes   int64
	failures int64

	startOnce sync.Once
	stopOnce  sync.Once
	kick      chan struct{}
	stop      chan struct{}
	done      chan struct{}
}

// NewSyncer builds a syncer from the primary's base URL to the given
// replica base URLs (the primary must not be in the list — it serves
// its own registry).
func NewSyncer(primary string, replicas []string, cfg SyncConfig) *Syncer {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.Client == nil {
		// Dedicated transport: Stop closes its idle connections, which
		// must not disturb other http.DefaultTransport users.
		cfg.Client = &http.Client{
			Timeout:   5 * time.Second,
			Transport: http.DefaultTransport.(*http.Transport).Clone(),
		}
	}
	s := &Syncer{
		primary:  primary,
		replicas: append([]string(nil), replicas...),
		interval: cfg.Interval,
		client:   cfg.Client,
		onError:  cfg.OnError,
		acked:    make(map[string]int64, len(replicas)),
		local:    make(map[string]map[int64]int64, len(replicas)),
		pushMu:   make(map[string]*sync.Mutex, len(replicas)),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, r := range s.replicas {
		s.pushMu[r] = &sync.Mutex{}
		s.local[r] = make(map[int64]int64)
		if cfg.SeedVersion > 0 {
			s.acked[r] = cfg.SeedVersion
			s.local[r][1] = cfg.SeedVersion
		}
	}
	return s
}

// Start launches the background poll/push loop. Stop must be called to
// release it.
func (s *Syncer) Start() {
	s.startOnce.Do(func() {
		go s.loop()
	})
}

// Stop terminates the loop and waits for it to exit. Safe to call
// multiple times, and safe when Start was never called.
func (s *Syncer) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) }) // never started: nothing to wait for
	<-s.done
	// Release outbound keep-alive connections (including never-used
	// spares from the transport's dial race, which would otherwise hold
	// replica-side StateNew connections open through their shutdown).
	s.client.CloseIdleConnections()
}

// Kick requests an immediate sync round (coalesced if one is already
// pending). Called by the router after each successful promotion so
// replication is push-shaped in the common case.
func (s *Syncer) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

func (s *Syncer) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		case <-s.kick:
		}
		budget := s.client.Timeout + time.Second
		if s.client.Timeout <= 0 {
			budget = 15 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		s.SyncOnce(ctx)
		cancel()
	}
}

// SyncOnce runs one poll/push round: fetch the primary's current
// model, push it to every replica that is behind, record
// acknowledgements. Per-replica failures go to OnError and the next
// round retries; the returned error is the primary-poll failure, if
// any (nothing can proceed without it).
func (s *Syncer) SyncOnce(ctx context.Context) error {
	ver, body, err := s.fetchPrimary(ctx)
	if err != nil {
		s.reportError(s.primary, err)
		return err
	}
	s.mu.Lock()
	s.rounds++
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, r := range s.replicas {
		if s.Acked(r) >= ver {
			continue
		}
		wg.Add(1)
		go func(r string) {
			defer wg.Done()
			if err := s.pushTo(ctx, r, ver, body); err != nil {
				s.reportError(r, err)
			}
		}(r)
	}
	wg.Wait()
	return nil
}

// fetchPrimary GETs the primary's current model and its version.
func (s *Syncer) fetchPrimary(ctx context.Context) (int64, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.primary+"/model", nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("poll primary: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, nil, fmt.Errorf("poll primary: status %d", resp.StatusCode)
	}
	ver, err := strconv.ParseInt(resp.Header.Get("X-Model-Version"), 10, 64)
	if err != nil || ver < 1 {
		return 0, nil, fmt.Errorf("poll primary: bad X-Model-Version %q", resp.Header.Get("X-Model-Version"))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("poll primary: %w", err)
	}
	return ver, body, nil
}

// pushTo replicates one primary snapshot to one replica. The
// per-replica mutex plus the re-check of acked under it guarantee
// pushes are strictly increasing in primary version per replica.
func (s *Syncer) pushTo(ctx context.Context, replica string, ver int64, body []byte) error {
	mu := s.pushMu[replica]
	mu.Lock()
	defer mu.Unlock()
	if s.Acked(replica) >= ver {
		return nil // a concurrent round already caught this replica up
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, replica+"/model", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		s.countFailure()
		return fmt.Errorf("push model v%d: %w", ver, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.countFailure()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("push model v%d: status %d: %s", ver, resp.StatusCode, bytes.TrimSpace(data))
	}
	var swap struct {
		Version int64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&swap); err != nil || swap.Version < 1 {
		s.countFailure()
		return fmt.Errorf("push model v%d: bad swap response (%v)", ver, err)
	}
	s.mu.Lock()
	s.local[replica][swap.Version] = ver
	s.acked[replica] = ver
	s.pushes++
	s.mu.Unlock()
	return nil
}

func (s *Syncer) countFailure() {
	s.mu.Lock()
	s.failures++
	s.mu.Unlock()
}

func (s *Syncer) reportError(endpoint string, err error) {
	if s.onError != nil {
		s.onError(endpoint, err)
	}
}

// Acked returns the highest primary version the replica has
// acknowledged (0 for unknown endpoints or nothing replicated).
func (s *Syncer) Acked(endpoint string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked[endpoint]
}

// Resolve maps a replica's registry-local version to the primary
// version it carries. ok is false when the local version is unknown —
// either it predates replication (unseeded initial model) or the
// replica was swapped outside the syncer, both of which the storm
// test treats as protocol violations.
func (s *Syncer) Resolve(endpoint string, local int64) (primary int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, found := s.local[endpoint]
	if !found {
		return 0, false
	}
	primary, ok = m[local]
	return primary, ok
}

// Vector snapshots the whole version vector, for /stats and tests.
func (s *Syncer) Vector() []ReplicaSync {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ReplicaSync, 0, len(s.replicas))
	for _, r := range s.replicas {
		local := make(map[int64]int64, len(s.local[r]))
		for k, v := range s.local[r] {
			local[k] = v
		}
		out = append(out, ReplicaSync{Endpoint: r, Acked: s.acked[r], Local: local})
	}
	return out
}

// Stats reports the syncer's lifetime counters.
func (s *Syncer) Stats() (rounds, pushes, failures int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds, s.pushes, s.failures
}
