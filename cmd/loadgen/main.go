// Command loadgen replays datagen-style synthetic workloads against
// the monoserve HTTP service and records throughput and latency, one
// row per configuration, as machine-readable JSON
// (BENCH_serve.json at the repo root).
//
// By default it spins up an in-process server per configuration — so
// the numbers isolate the serving stack, not the network — trains the
// initial model on a planted-distribution sample, then fires
// single-point classify requests from concurrent keep-alive clients:
//
//	loadgen -out BENCH_serve.json                 # full run
//	loadgen -out /tmp/q.json -quick               # seconds-scale smoke
//	loadgen -url http://host:8080 -out out.json   # external server
//
// Configurations are "SPEC[@PROCS][+rN]" entries. SPEC is either "p"
// — single-point /classify requests through the server's batcher,
// which answers one request per worker turn — or "bN" — client-side
// batches of N points per /classify/batch request, where -requests
// counts points and throughput_rps reports classifications per
// second. An optional "@PROCS" suffix pins runtime.GOMAXPROCS for
// that row ("p@2"), and an optional "+rN" suffix serves the row
// through an in-process replica fleet of N servers behind the sharding
// router ("b512@2+r2"): requests scale by N so per-replica work stays
// comparable, throughput_rps aggregates the whole fleet, and
// mean_batch/batches come from the router's exact summed totals.
//
// The run fails (non-zero exit, after the report is written) when any
// row saw a failed request: a transport error or a status other than
// 200/202. 429s are load shedding; they are counted per row, not
// fatal.
//
// With -shard-addrs the row drives an already-running external fleet:
// loadgen builds a local sharding router over the comma-separated
// replica URLs and replays through it, one row, aggregate numbers.
//
// With -learn-every N the in-process server is started with online
// learning enabled and every Nth classify call also posts one /learn
// insert delta, so each row measures classify latency under model
// churn (hot swaps racing the classify path); learn_requests,
// learn_accepted, and learn_rejected are reported per row.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"monoclass"
)

// report is the top-level BENCH_serve.json shape, mirroring the other
// BENCH_*.json files.
type report struct {
	GeneratedAt string      `json:"generated_at"`
	GoVersion   string      `json:"go_version"`
	GOOS        string      `json:"goos"`
	GOARCH      string      `json:"goarch"`
	NumCPU      int         `json:"num_cpu"`
	Seed        int64       `json:"seed"`
	Kind        string      `json:"kind"`
	N           int         `json:"n"`
	Dim         int         `json:"dim"`
	Rows        []configRow `json:"configs"`
}

// configRow is one configuration's measurements. For client-batch
// rows (ClientBatch > 0) Requests counts points and ThroughputRPS is
// classifications per second; single-point rows (ClientBatch 0) go
// through the server-side batcher.
type configRow struct {
	ClientBatch int `json:"client_batch"`
	// Replicas > 0 marks a sharded row: the requests were served by a
	// replica fleet of this size behind the consistent-hash router, and
	// the throughput/batch numbers aggregate the whole fleet.
	Replicas      int     `json:"replicas,omitempty"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Requests      int     `json:"requests"`
	Concurrency   int     `json:"concurrency"`
	ElapsedMillis float64 `json:"elapsed_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Micros     float64 `json:"p50_us"`
	P95Micros     float64 `json:"p95_us"`
	P99Micros     float64 `json:"p99_us"`
	MaxMicros     float64 `json:"max_us"`
	Rejected      int64   `json:"rejected"`
	Errors        int64   `json:"errors"`
	MeanBatch     float64 `json:"mean_batch"`
	Batches       int64   `json:"batches"`
	// Learn-traffic counters (zero unless -learn-every mixes /learn
	// deltas into the classify stream).
	LearnRequests int64 `json:"learn_requests,omitempty"`
	LearnAccepted int64 `json:"learn_accepted,omitempty"`
	LearnRejected int64 `json:"learn_rejected,omitempty"`
	// firstErr is the first failed request's error, for the run's
	// failure message.
	firstErr error
}

// options collects the knobs so tests can call run directly.
type options struct {
	out         string
	quick       bool
	seed        int64
	kind        string
	n           int
	dim         int
	noise       float64
	requests    int
	concurrency int
	configs     string
	url         string
	shardAddrs  string
	learnEvery  int
}

func main() {
	var opt options
	flag.StringVar(&opt.out, "out", "BENCH_serve.json", "output JSON path")
	flag.BoolVar(&opt.quick, "quick", false, "seconds-scale smoke run")
	flag.Int64Var(&opt.seed, "seed", 1, "random seed (workload is reproducible per seed)")
	flag.StringVar(&opt.kind, "kind", "planted", "dataset kind: planted | width | 1d (as cmd/datagen)")
	flag.IntVar(&opt.n, "n", 4096, "training/query sample size")
	flag.IntVar(&opt.dim, "d", 3, "dimensionality (planted only)")
	flag.Float64Var(&opt.noise, "noise", 0.1, "label-flip probability")
	flag.IntVar(&opt.requests, "requests", 20000, "requests per configuration")
	flag.IntVar(&opt.concurrency, "concurrency", 32, "concurrent client goroutines")
	flag.StringVar(&opt.configs, "configs", "p@1,p@2,b64@1,b512@1,b512@2,b512@2+r2,b2048@2+r2,b4096@2+r2,b4096@2+r3",
		"comma-separated SPEC[@PROCS][+rN] configurations (SPEC = p for single points or bN for client batches; +rN serves through an N-replica fleet)")
	flag.StringVar(&opt.url, "url", "", "replay against an external server instead of in-process (single row)")
	flag.StringVar(&opt.shardAddrs, "shard-addrs", "",
		"comma-separated external replica base URLs; loadgen fronts them with a local sharding router and replays through it (single row)")
	flag.IntVar(&opt.learnEvery, "learn-every", 0,
		"every Nth classify call also posts one /learn insert delta, measuring serving under model churn (0: disabled; in-process only)")
	flag.Parse()

	if err := run(opt, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

// run executes the whole benchmark and writes the report.
func run(opt options, logw io.Writer) error {
	if opt.quick {
		if opt.requests > 2000 {
			opt.requests = 2000
		}
		if opt.n > 1024 {
			opt.n = 1024
		}
	}
	configs, err := parseConfigs(opt.configs)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(opt.seed))
	lab, err := generate(rng, opt)
	if err != nil {
		return err
	}
	ws := make(monoclass.WeightedSet, len(lab))
	for i, lp := range lab {
		ws[i] = monoclass.WeightedPoint{P: lp.P, Label: lp.Label, Weight: 1}
	}
	sol, err := monoclass.OptimalPassive(ws)
	if err != nil {
		return fmt.Errorf("training initial model: %w", err)
	}
	pts := make([]monoclass.Point, len(lab))
	for i, lp := range lab {
		pts[i] = lp.P
	}

	rep := &report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Seed:        opt.seed,
		Kind:        opt.kind,
		N:           len(pts),
		Dim:         sol.Classifier.Dim(),
	}

	if opt.url != "" && opt.shardAddrs != "" {
		return fmt.Errorf("-url and -shard-addrs are mutually exclusive")
	}
	var names []string // one per row, for the failure message
	if opt.url != "" {
		row, err := replay(opt.url, pts, opt.requests, opt.concurrency, 0, 0, nil)
		if err != nil {
			return err
		}
		row.GOMAXPROCS = runtime.GOMAXPROCS(0)
		rep.Rows = append(rep.Rows, *row)
		names = append(names, opt.url)
	} else if opt.shardAddrs != "" {
		row, err := replayShardAddrs(opt, pts)
		if err != nil {
			return err
		}
		fmt.Fprintf(logw, "loadgen: external fleet of %d replicas → %.0f req/s, p50=%.0fµs p99=%.0fµs\n",
			row.Replicas, row.ThroughputRPS, row.P50Micros, row.P99Micros)
		rep.Rows = append(rep.Rows, *row)
		names = append(names, opt.shardAddrs)
	} else {
		for _, bc := range configs {
			row, err := runRow(bc, sol.Classifier, pts, opt)
			if err != nil {
				return err
			}
			rep.Rows = append(rep.Rows, *row)
			names = append(names, bc.spec)
			tag := ""
			if bc.replicas > 1 {
				tag = fmt.Sprintf(" replicas=%d", bc.replicas)
			}
			if bc.clientBatch > 0 {
				fmt.Fprintf(logw, "loadgen: client-batch=%d procs=%d%s → %.0f classifications/s, p50=%.0fµs p99=%.0fµs\n",
					bc.clientBatch, row.GOMAXPROCS, tag, row.ThroughputRPS, row.P50Micros, row.P99Micros)
			} else {
				fmt.Fprintf(logw, "loadgen: single points procs=%d%s → %.0f req/s, p50=%.0fµs p99=%.0fµs (mean batch %.2f)\n",
					row.GOMAXPROCS, tag, row.ThroughputRPS, row.P50Micros, row.P99Micros, row.MeanBatch)
			}
			if opt.learnEvery > 0 {
				fmt.Fprintf(logw, "loadgen:   learn: %d posted, %d accepted, %d rejected\n",
					row.LearnRequests, row.LearnAccepted, row.LearnRejected)
			}
		}
	}

	f, err := os.Create(opt.out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(logw, "loadgen: wrote %s (%d configuration rows)\n", opt.out, len(rep.Rows))
	var failed []string
	for i, row := range rep.Rows {
		if row.Errors > 0 {
			failed = append(failed, fmt.Sprintf("%s: %d failed, first: %v", names[i], row.Errors, row.firstErr))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("requests failed (%s)", strings.Join(failed, "; "))
	}
	return nil
}

// generate builds the query/training distribution, mirroring
// cmd/datagen's kinds.
func generate(rng *rand.Rand, opt options) ([]monoclass.LabeledPoint, error) {
	switch opt.kind {
	case "planted":
		return monoclass.GeneratePlanted(rng, monoclass.PlantedParams{N: opt.n, D: opt.dim, Noise: opt.noise}), nil
	case "width":
		return monoclass.GenerateWidthControlled(rng, monoclass.WidthParams{N: opt.n, W: 8, Noise: opt.noise}), nil
	case "1d":
		return monoclass.GenerateUniform1D(rng, opt.n, 0.5, opt.noise), nil
	default:
		return nil, fmt.Errorf("unknown kind %q", opt.kind)
	}
}

// learnDelta mirrors the POST /learn wire shape.
type learnDelta struct {
	Op     string    `json:"op"`
	Point  []float64 `json:"point"`
	Label  int       `json:"label"`
	Weight float64   `json:"weight"`
}

// benchConfig is one parsed configuration row: single points or a
// client-batch size, optionally pinned to a GOMAXPROCS value.
type benchConfig struct {
	spec        string // as written, for messages
	clientBatch int    // > 0: bN mode, /classify/batch with N points per call; 0: p mode
	procs       int    // > 0: runtime.GOMAXPROCS for the row's duration
	replicas    int    // > 1: +rN mode, an in-process replica fleet behind the sharding router
}

// parseConfigs parses "p,b512,p@2,b512@2+r2" into benchmark
// configurations.
func parseConfigs(s string) ([]benchConfig, error) {
	var out []benchConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		bc := benchConfig{spec: part}
		if i := strings.LastIndex(part, "+r"); i >= 0 {
			n, err := strconv.Atoi(part[i+2:])
			if err != nil || n < 2 {
				return nil, fmt.Errorf("invalid replica suffix in %q (want SPEC+rN with N ≥ 2, e.g. b512@2+r2)", part)
			}
			bc.replicas = n
			part = part[:i]
		}
		if i := strings.IndexByte(part, '@'); i >= 0 {
			procs, err := strconv.Atoi(part[i+1:])
			if err != nil || procs < 1 {
				return nil, fmt.Errorf("invalid procs suffix in %q (want SPEC@PROCS, e.g. p@2)", part)
			}
			bc.procs = procs
			part = part[:i]
		}
		if rest, ok := strings.CutPrefix(part, "b"); ok {
			n, err := strconv.Atoi(rest)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("invalid client-batch config %q (want bN, e.g. b512)", part)
			}
			bc.clientBatch = n
		} else if part != "p" {
			return nil, fmt.Errorf("invalid config %q (want p[@PROCS][+rN] for single points or bN[@PROCS][+rN] for client batches, e.g. p@2 or b512)", bc.spec)
		}
		out = append(out, bc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no configurations given")
	}
	return out, nil
}

// runRow measures one configuration against a fresh in-process server,
// pinning GOMAXPROCS for the row when requested.
func runRow(bc benchConfig, model *monoclass.AnchorSet, pts []monoclass.Point, opt options) (*configRow, error) {
	if bc.procs > 0 {
		prev := runtime.GOMAXPROCS(bc.procs)
		defer runtime.GOMAXPROCS(prev)
	}
	cfg := monoclass.ServeConfig{Batch: monoclass.BatcherConfig{QueueCap: 8192}}
	if opt.learnEvery > 0 {
		// Start the online updater cold (empty multiset): the loaded
		// model serves while incremental deltas stream in, so the row
		// measures the classify path racing live model swaps.
		cfg.Online = &monoclass.ServeOnlineConfig{QueueCap: 8192}
	}
	if bc.replicas > 1 {
		return runClusterRow(bc, model, cfg, pts, opt)
	}
	srv, err := monoclass.NewServer(model, cfg)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	row, err := replay("http://"+addr.String(), pts, opt.requests, opt.concurrency, bc.clientBatch, opt.learnEvery, srv)
	if cerr := srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	row.GOMAXPROCS = runtime.GOMAXPROCS(0)
	row.ClientBatch = bc.clientBatch
	return row, nil
}

// runClusterRow measures one +rN configuration against a fresh
// in-process replica fleet behind the sharding router: requests scale
// by the replica count so per-replica work matches the single-server
// rows, and the batch-shape numbers come from the router's exact
// summed fleet totals.
func runClusterRow(bc benchConfig, model *monoclass.AnchorSet, cfg monoclass.ServeConfig, pts []monoclass.Point, opt options) (*configRow, error) {
	cl, err := monoclass.NewShardCluster(model, monoclass.ShardClusterConfig{
		Replicas:     bc.replicas,
		Serve:        cfg,
		SyncInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	addr, err := cl.Start("127.0.0.1:0")
	if err != nil {
		cl.Close()
		return nil, err
	}
	url := "http://" + addr.String()
	row, err := replay(url, pts, opt.requests*bc.replicas, opt.concurrency, bc.clientBatch, opt.learnEvery, nil)
	if err == nil {
		fillRouterStats(url, row)
	}
	if cerr := cl.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing replica fleet: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	row.GOMAXPROCS = runtime.GOMAXPROCS(0)
	row.ClientBatch = bc.clientBatch
	row.Replicas = bc.replicas
	return row, nil
}

// fillRouterStats reads the sharding router's aggregate /stats and
// copies the fleet-exact batch-shape totals into the row.
func fillRouterStats(url string, row *configRow) {
	resp, err := http.Get(url + "/stats")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var agg struct {
		Totals struct {
			MeanBatch float64 `json:"mean_batch"`
			Batches   int64   `json:"batches"`
		} `json:"totals"`
	}
	if json.NewDecoder(resp.Body).Decode(&agg) == nil {
		row.MeanBatch = agg.Totals.MeanBatch
		row.Batches = agg.Totals.Batches
	}
}

// replayShardAddrs fronts an already-running external fleet with a
// local ring router and replays through it, producing one aggregate
// row.
func replayShardAddrs(opt options, pts []monoclass.Point) (*configRow, error) {
	var eps []string
	for _, part := range strings.Split(opt.shardAddrs, ",") {
		if part = strings.TrimSpace(part); part != "" {
			eps = append(eps, part)
		}
	}
	router, err := monoclass.NewShardRouter(eps, monoclass.ShardRouterConfig{})
	if err != nil {
		return nil, err
	}
	addr, err := router.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	url := "http://" + addr.String()
	row, err := replay(url, pts, opt.requests, opt.concurrency, 0, 0, nil)
	if err == nil {
		fillRouterStats(url, row)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	serr := router.Shutdown(ctx)
	cancel()
	if err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	row.GOMAXPROCS = runtime.GOMAXPROCS(0)
	row.Replicas = len(eps)
	return row, nil
}

// replay fires requests at url from concurrency keep-alive clients and
// aggregates latencies; srv (optional) supplies /stats-backed batch
// shape numbers. clientBatch > 0 switches to /classify/batch with that
// many points per call: requests then counts points, and the reported
// throughput is classifications per second. learnEvery > 0 interleaves
// one POST /learn insert delta after every learnEvery-th classify call
// on each client; learn calls are counted separately and excluded from
// the classify latency percentiles.
func replay(url string, pts []monoclass.Point, requests, concurrency, clientBatch, learnEvery int, srv *monoclass.Server) (*configRow, error) {
	calls := requests
	path := "/classify"
	var bodies [][]byte
	if clientBatch > 0 {
		path = "/classify/batch"
		calls = (requests + clientBatch - 1) / clientBatch
		numBodies := len(pts) / clientBatch
		if numBodies < 1 {
			numBodies = 1
		}
		bodies = make([][]byte, numBodies)
		for bi := range bodies {
			chunk := make([][]float64, clientBatch)
			for j := range chunk {
				chunk[j] = pts[(bi*clientBatch+j)%len(pts)]
			}
			b, err := json.Marshal(struct {
				Points [][]float64 `json:"points"`
			}{Points: chunk})
			if err != nil {
				return nil, err
			}
			bodies[bi] = b
		}
	} else {
		bodies = make([][]byte, len(pts))
		for i, p := range pts {
			b, err := json.Marshal(struct {
				Point []float64 `json:"point"`
			}{Point: p})
			if err != nil {
				return nil, err
			}
			bodies[i] = b
		}
	}
	var learnBodies [][]byte
	if learnEvery > 0 {
		// Insert deltas drawn from the query distribution. Labels
		// alternate by index so the stream keeps planting fresh
		// monotonicity violations — each rebuild has real work to do.
		learnBodies = make([][]byte, len(pts))
		for i, p := range pts {
			b, err := json.Marshal(struct {
				Deltas []learnDelta `json:"deltas"`
			}{Deltas: []learnDelta{{Op: "insert", Point: p, Label: i % 2, Weight: 1}}})
			if err != nil {
				return nil, err
			}
			learnBodies[i] = b
		}
	}
	if concurrency < 1 {
		concurrency = 1
	}
	if concurrency > calls {
		concurrency = calls
	}

	var (
		rejected  atomic.Int64
		errors    atomic.Int64
		learnReqs atomic.Int64
		learnAcc  atomic.Int64
		learnRej  atomic.Int64
		mu        sync.Mutex
		all       []time.Duration
		firstErr  error
		firstOnce sync.Once
	)
	// fail counts one failed request and keeps the first error for the
	// report (transport errors and status errors differ in type).
	fail := func(err error) {
		errors.Add(1)
		firstOnce.Do(func() { firstErr = err })
	}
	transport := &http.Transport{MaxIdleConnsPerHost: concurrency}
	defer transport.CloseIdleConnections()

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(concurrency)
	for c := 0; c < concurrency; c++ {
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
			// The calls are dealt out evenly: the first calls%concurrency
			// clients make one more than the rest.
			per := calls / concurrency
			if c < calls%concurrency {
				per++
			}
			lat := make([]time.Duration, 0, per)
			idx := c
			for i := 0; i < per; i++ {
				body := bodies[idx%len(bodies)]
				idx += concurrency
				t0 := time.Now()
				resp, err := client.Post(url+path, "application/json", strings.NewReader(string(body)))
				if err != nil {
					fail(err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					lat = append(lat, time.Since(t0))
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					fail(fmt.Errorf("%s%s: status %d", url, path, resp.StatusCode))
				}
				if learnEvery > 0 && i%learnEvery == learnEvery-1 {
					lb := learnBodies[idx%len(learnBodies)]
					learnReqs.Add(1)
					resp, err := client.Post(url+"/learn", "application/json", strings.NewReader(string(lb)))
					if err != nil {
						fail(err)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusAccepted:
						learnAcc.Add(1)
					case http.StatusTooManyRequests:
						learnRej.Add(1)
					default:
						fail(fmt.Errorf("%s/learn: status %d", url, resp.StatusCode))
					}
				}
			}
			mu.Lock()
			all = append(all, lat...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if len(all) == 0 {
		return nil, fmt.Errorf("no request succeeded (%d rejected, %d errors, first error: %v)",
			rejected.Load(), errors.Load(), firstErr)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) float64 {
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Microsecond)
	}
	// For client batches every successful call classified clientBatch
	// points, so throughput counts classifications, not HTTP calls.
	perCall := 1
	if clientBatch > 0 {
		perCall = clientBatch
	}
	row := &configRow{
		Requests:      requests,
		Concurrency:   concurrency,
		ElapsedMillis: float64(elapsed) / float64(time.Millisecond),
		ThroughputRPS: float64(len(all)*perCall) / elapsed.Seconds(),
		P50Micros:     q(0.50),
		P95Micros:     q(0.95),
		P99Micros:     q(0.99),
		MaxMicros:     float64(all[len(all)-1]) / float64(time.Microsecond),
		Rejected:      rejected.Load(),
		Errors:        errors.Load(),
		LearnRequests: learnReqs.Load(),
		LearnAccepted: learnAcc.Load(),
		LearnRejected: learnRej.Load(),
	}
	row.firstErr = firstErr
	if srv != nil {
		resp, err := http.Get(url + "/stats")
		if err == nil {
			var snap monoclass.ServeStats
			if json.NewDecoder(resp.Body).Decode(&snap) == nil {
				row.MeanBatch = snap.MeanBatch
				row.Batches = snap.Batches
			}
			resp.Body.Close()
		}
	}
	return row, nil
}
