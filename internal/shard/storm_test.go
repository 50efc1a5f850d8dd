package shard

// The cross-process swap-storm test: the distributed extension of the
// serve package's TestHotSwapStorm. Three replica servers run behind
// real HTTP listeners, a router spreads concurrent classify load over
// them while a promotion storm drives new model versions through the
// router's control plane, and the syncer replicates each promotion to
// the fleet. Model version v always carries threshold tau = v, so a
// response is checkable from its version alone once the version is
// resolved to primary coordinates.
//
// The invariant under test is the version-vector agreement: for every
// response served by replica R at R's local version L, the primary
// version P = Resolve(R, L) must satisfy
//
//	ackedAtSubmit(R) ≤ P ≤ primaryVersionAtResponse
//
// The lower bound is the "never observed older than acknowledged"
// guarantee (the syncer's per-replica pushes are serialized and
// strictly monotone; the replica's registry only swaps forward). The
// upper bound holds because P was the primary's version at some
// earlier push. The label check then pins the payload: the model
// serving P labels x positive iff x ≥ P.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/serve"
	"monoclass/internal/testutil"
)

type stormObs struct {
	x        float64
	endpoint string
	localVer int64
	label    geom.Label
	vLo      int64 // acked (replica) / primary version (primary) at submit
	vHi      int64 // primary version after the response arrived
}

func TestShardSwapStorm(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		replicas   = 3
		workers    = 4
		perWorker  = 150
		promotions = 25
	)
	urls, srvs := testFleet(t, replicas, thresholdModel(t, 1), serve.Config{
		Batch: serve.BatcherConfig{QueueCap: 4096, Workers: 2},
	})
	primaryReg := srvs[0].Registry()

	syncer := NewSyncer(urls[0], urls[1:], SyncConfig{
		Interval:    2 * time.Millisecond,
		SeedVersion: 1,
		Client:      fastClient(),
	})
	router, err := NewRouter(urls, RouterConfig{
		Primary:        0,
		Syncer:         syncer,
		HealthInterval: -1, // deterministic routing: no background health flips
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	syncer.Start()
	defer syncer.Stop()

	hs := httptest.NewServer(router.Handler())
	defer hs.Close()
	rs := hs.URL
	client := &http.Client{Timeout: 10 * time.Second}

	// Promoter: drives the storm through the router's control plane.
	// Promotions serialize here, so version v+1 always carries tau v+1.
	var stormWG sync.WaitGroup
	var promoted atomic.Int64
	stormWG.Add(1)
	go func() {
		defer stormWG.Done()
		for i := 0; i < promotions; i++ {
			tau := float64(i + 2) // version 1 is the seed model
			var buf strings.Builder
			if err := classifier.WriteModel(&buf, thresholdModel(t, tau)); err != nil {
				t.Errorf("serialize model: %v", err)
				return
			}
			resp, err := client.Post(rs+"/model", "application/json", strings.NewReader(buf.String()))
			if err != nil {
				t.Errorf("promote tau=%g: %v", tau, err)
				return
			}
			var swap struct {
				Version int64 `json:"version"`
			}
			err = json.NewDecoder(resp.Body).Decode(&swap)
			resp.Body.Close()
			if err != nil || swap.Version != int64(tau) {
				t.Errorf("promote tau=%g: version %d, err %v (promotion/threshold pairing broken)", tau, swap.Version, err)
				return
			}
			promoted.Store(swap.Version)
			time.Sleep(500 * time.Microsecond) // spread the storm across the classify window
		}
	}()

	// Classify workers: predict the placement, record the version
	// window, submit through the router.
	obsCh := make(chan stormObs, workers*perWorker)
	var rejected atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perWorker; i++ {
				// Strictly-fractional points: every integer threshold
				// labels them unambiguously, and the fractional jitter
				// gives the ring enough distinct keys to spread load.
				x := float64(rng.Intn(promotions+6)) + 0.1 + 0.8*rng.Float64()
				pt := geom.Point{x}
				ep := router.Endpoint(pt)
				var vLo int64
				if ep == urls[0] {
					vLo = primaryReg.Version()
				} else {
					vLo = syncer.Acked(ep)
				}
				resp, err := client.Post(rs+"/classify", "application/json",
					strings.NewReader(fmt.Sprintf(`{"point":[%g]}`, x)))
				if err != nil {
					t.Errorf("classify: %v", err)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					resp.Body.Close()
					rejected.Add(1)
					continue
				}
				var res struct {
					Label   geom.Label `json:"label"`
					Version int64      `json:"version"`
				}
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil {
					t.Errorf("classify decode: %v", err)
					return
				}
				obsCh <- stormObs{
					x: x, endpoint: ep, localVer: res.Version, label: res.Label,
					vLo: vLo, vHi: primaryReg.Version(),
				}
			}
		}(w)
	}
	wg.Wait()
	stormWG.Wait()
	close(obsCh)

	// Quiesce: every replica must acknowledge the final primary version
	// — re-convergence is part of the protocol under test.
	finalVer := primaryReg.Version()
	if finalVer != int64(promotions)+1 {
		t.Fatalf("primary at version %d after storm, want %d", finalVer, promotions+1)
	}
	waitConverged(t, syncer, urls[1:], finalVer, 10*time.Second)

	// Every observation must resolve to a primary version inside its
	// live window, with the matching label.
	checked := 0
	for obs := range obsCh {
		var p int64
		if obs.endpoint == urls[0] {
			p = obs.localVer // primary serves primary versions directly
		} else {
			var ok bool
			p, ok = syncer.Resolve(obs.endpoint, obs.localVer)
			if !ok {
				t.Errorf("replica %s served unmapped local version %d (swap outside the syncer?)", obs.endpoint, obs.localVer)
				continue
			}
		}
		if p < obs.vLo || p > obs.vHi {
			t.Errorf("point %g: resolved primary version %d outside live window [%d,%d] (replica %s local %d)",
				obs.x, p, obs.vLo, obs.vHi, obs.endpoint, obs.localVer)
		}
		want := geom.Negative
		if obs.x >= float64(p) {
			want = geom.Positive
		}
		if obs.label != want {
			t.Errorf("point %g labeled %v by primary version %d, want %v", obs.x, obs.label, p, want)
		}
		checked++
	}
	if min := workers * perWorker / 2; checked < min {
		t.Errorf("only %d observations checked (%d rejected), want ≥ %d", checked, rejected.Load(), min)
	}

	// The storm must actually have spread: every replica served traffic
	// and every replica converged through multiple pushes.
	agg := router.AggregateStats(context.Background())
	for i, n := range agg.Router.Routed {
		if n == 0 {
			t.Errorf("replica %d served no routed traffic — storm did not spread", i)
		}
	}
	if _, pushes, _ := syncer.Stats(); pushes < int64(promotions) {
		t.Errorf("syncer recorded %d pushes for %d promotions × %d replicas", pushes, promotions, replicas-1)
	}
	t.Logf("storm: %d checked, %d rejected, routed %v, final version %d", checked, rejected.Load(), agg.Router.Routed, finalVer)
}

// waitConverged polls until every replica's acked version reaches want.
func waitConverged(t *testing.T, s *Syncer, replicas []string, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		lagging := ""
		for _, r := range replicas {
			if s.Acked(r) < want {
				lagging = r
				break
			}
		}
		if lagging == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never acknowledged version %d (acked %d)", lagging, want, s.Acked(lagging))
		}
		time.Sleep(time.Millisecond)
	}
}
