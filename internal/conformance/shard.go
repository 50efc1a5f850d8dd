package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/serve"
	"monoclass/internal/shard"
)

// shardMaxQueries bounds the per-instance HTTP round trips of the
// routed-vs-direct check: each query costs two real requests, so the
// check samples rather than sweeps large instances.
const shardMaxQueries = 32

// shardMaxAnchors bounds the anchor pool handed to the fleet's model;
// NewAnchorSet prunes to the minimal antichain anyway, this just caps
// the pruning cost on big instances.
const shardMaxAnchors = 200

// classifyWire is the /classify response shape shared by router and
// replica.
type classifyWire struct {
	Label   geom.Label `json:"label"`
	Version int64      `json:"version"`
}

// CheckShardRouted holds the shard router to exact agreement with
// direct primary serving: a fleet of three replicas starts from one
// model, and every sampled query must come back with the same label
// and version whether it is POSTed straight to the primary or through
// the consistent-hash ring router, one point at a time and as a
// client batch. Queries are restricted to finite coordinates because
// the JSON wire format has no encoding for NaN or ±Inf in request
// bodies (the model codec escapes infinities; requests do not).
func CheckShardRouted(in Instance) error {
	rng := rand.New(rand.NewSource(in.Seed ^ 0x73686172))
	d := in.Dim()
	if d == 0 {
		d = 1 + rng.Intn(3)
	}

	// Model: the instance's finite positive points (NaN anchors are
	// rejected by the model codec; ±Inf would be legal but the instance
	// generators only emit them as query stress, not anchors).
	var anchors []geom.Point
	for i, p := range in.Pts() {
		if in.Labels[i] != 1 || !finitePoint(p) {
			continue
		}
		anchors = append(anchors, p)
		if len(anchors) == shardMaxAnchors {
			break
		}
	}
	model, err := classifier.NewAnchorSet(d, anchors)
	if err != nil {
		return fmt.Errorf("building fleet model: %w", err)
	}

	// Queries: the instance's finite points, topped up with seeded
	// random finite points so even an all-special instance exercises
	// the wire.
	var queries []geom.Point
	for _, p := range in.Pts() {
		if finitePoint(p) {
			queries = append(queries, p)
		}
		if len(queries) == shardMaxQueries {
			break
		}
	}
	for len(queries) < 8 {
		q := make(geom.Point, d)
		for k := range q {
			q[k] = math.Floor(rng.Float64()*16) - 8
		}
		queries = append(queries, q)
	}

	const replicas = 3
	fleet := make([]*serve.Server, replicas)
	urls := make([]string, replicas)
	var hss []*httptest.Server
	defer func() {
		for _, hs := range hss {
			hs.Close()
		}
		for _, srv := range fleet {
			if srv != nil {
				srv.Close()
			}
		}
	}()
	for i := range fleet {
		srv, err := serve.NewServer(model, serve.Config{
			Batch: serve.BatcherConfig{QueueCap: 256, Workers: 1},
		})
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		fleet[i] = srv
		hs := httptest.NewServer(srv.Handler())
		hss = append(hss, hs)
		urls[i] = hs.URL
	}
	client := &http.Client{Timeout: 10 * time.Second}

	router, err := shard.NewRouter(urls, shard.RouterConfig{
		VNodes:         shard.DefaultVNodes,
		HealthInterval: -1,
		Client:         client,
	})
	if err != nil {
		return err
	}
	rhs := httptest.NewServer(router.Handler())
	defer router.Close()
	defer rhs.Close()
	return shardCompare(client, rhs.URL, urls[0], queries)
}

// shardCompare runs the routed-vs-direct differential through the
// router at routed against the replica at direct.
func shardCompare(client *http.Client, routed, direct string, queries []geom.Point) error {
	for _, q := range queries {
		viaRouter, err := postClassify(client, routed, q)
		if err != nil {
			return fmt.Errorf("routed classify(%v): %w", q, err)
		}
		viaPrimary, err := postClassify(client, direct, q)
		if err != nil {
			return fmt.Errorf("direct classify(%v): %w", q, err)
		}
		if viaRouter != viaPrimary {
			return fmt.Errorf("classify(%v) routed (label %v, version %d) != direct (label %v, version %d)",
				q, viaRouter.Label, viaRouter.Version, viaPrimary.Label, viaPrimary.Version)
		}
	}

	// Whole set as one client batch: the router must hand the batch to
	// a single replica and return one coherent (labels, version) pair.
	routedLabels, routedVer, err := postBatch(client, routed, queries)
	if err != nil {
		return fmt.Errorf("routed batch: %w", err)
	}
	directLabels, directVer, err := postBatch(client, direct, queries)
	if err != nil {
		return fmt.Errorf("direct batch: %w", err)
	}
	if routedVer != directVer {
		return fmt.Errorf("batch version routed %d != direct %d", routedVer, directVer)
	}
	for i := range queries {
		if routedLabels[i] != directLabels[i] {
			return fmt.Errorf("batch slot %d (%v) routed label %v != direct %v",
				i, queries[i], routedLabels[i], directLabels[i])
		}
	}
	return nil
}

// postClassify POSTs one point to base/classify.
func postClassify(client *http.Client, base string, q geom.Point) (classifyWire, error) {
	body, err := json.Marshal(map[string]any{"point": []float64(q)})
	if err != nil {
		return classifyWire{}, err
	}
	resp, err := client.Post(base+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return classifyWire{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return classifyWire{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out classifyWire
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return classifyWire{}, err
	}
	return out, nil
}

// postBatch POSTs the whole query set to base/classify/batch.
func postBatch(client *http.Client, base string, qs []geom.Point) ([]geom.Label, int64, error) {
	pts := make([][]float64, len(qs))
	for i, q := range qs {
		pts[i] = q
	}
	body, err := json.Marshal(map[string]any{"points": pts})
	if err != nil {
		return nil, 0, err
	}
	resp, err := client.Post(base+"/classify/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out struct {
		Labels  []geom.Label `json:"labels"`
		Version int64        `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, 0, err
	}
	if len(out.Labels) != len(qs) {
		return nil, 0, fmt.Errorf("%d labels for %d points", len(out.Labels), len(qs))
	}
	return out.Labels, out.Version, nil
}

// finitePoint reports whether every coordinate is finite (no NaN, no
// ±Inf) — the subset of points the JSON request wire can carry.
func finitePoint(p geom.Point) bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
