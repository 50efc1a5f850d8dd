package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"monoclass"
	"monoclass/internal/classifier"
	"monoclass/internal/online"
	"monoclass/internal/serve"
)

// state is one set-up: the inputs, the oracle, and a running server.
type state struct {
	w       workload
	sets    []trainSet            // the run's training sets, trained in turn
	ws      monoclass.WeightedSet // the first set, parsed
	model   *classifier.AnchorSet // the served model: the first set's oracle
	version int64                 // its registry version; answers from later versions (serve-churn) are not label-checked

	queries      []monoclass.Point
	pointBodies  [][]byte
	pointWant    []monoclass.Label
	batchBodies  [][]byte
	batchWant    [][]monoclass.Label
	deltas       []online.Delta
	learnBodies  [][]byte
	srv          *serve.Server
	hs           *http.Server
	served       chan struct{} // closed when hs.Serve has returned
	base         string
	handlerTimes *spanLog // non-nil in a traced run: the handler wrapper records here
	clients      []*http.Client
}

// setup builds every input from the seed, solves the oracle, starts
// the server behind the benchmark's own listener and warms it up.
func setup(w workload, seed int64, deltaCount int, traced bool) (*state, error) {
	st := &state{w: w}
	var err error
	if st.sets, st.ws, st.model, err = trainSets(w, seed); err != nil {
		return nil, err
	}

	for _, wp := range w.gen(rngFor(seed, streamQueries), numQueries+numBatchBodies*batchSize) {
		st.queries = append(st.queries, wp.P)
	}
	for _, q := range st.queries[:numQueries] {
		st.pointBodies = append(st.pointBodies, pointBody(q))
		st.pointWant = append(st.pointWant, st.model.Classify(q))
	}
	for i := range numBatchBodies {
		pts := st.queries[numQueries+i*batchSize : numQueries+(i+1)*batchSize]
		want := make([]monoclass.Label, len(pts))
		st.model.ClassifyBatchInto(want, pts)
		st.batchBodies = append(st.batchBodies, batchBody(pts))
		st.batchWant = append(st.batchWant, want)
	}
	st.deltas = deltaTrace(w, seed, deltaCount)
	if w.churn {
		for _, d := range st.deltas {
			st.learnBodies = append(st.learnBodies, learnBody(d))
		}
	}

	cfg := serve.Config{}
	if w.churn {
		cfg.Online = &serve.OnlineConfig{Initial: st.ws}
	}
	st.srv, err = serve.NewServer(st.model, cfg)
	if err != nil {
		return nil, fmt.Errorf("new server: %w", err)
	}
	var h http.Handler = st.srv.Handler()
	if traced {
		st.handlerTimes = &spanLog{}
		h = timedHandler{next: h, log: st.handlerTimes}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.hs = &http.Server{Handler: h}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		st.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	st.base = "http://" + ln.Addr().String()
	st.version = st.srv.Registry().Version()
	for range 2 {
		st.clients = append(st.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
	}
	if err := st.warmUp(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// warmUp opens both keep-alive connections and runs every endpoint the
// measured phases use, so the first timed request pays no dial or
// lazy-initialisation cost.
func (st *state) warmUp() error {
	for c, cl := range st.clients {
		for i := range 32 {
			if _, _, err := st.classify(cl, st.pointBodies[i], -1); err != nil {
				return fmt.Errorf("warm-up classify: %w", err)
			}
		}
		if _, _, err := st.classifyBatch(cl, st.batchBodies[c]); err != nil {
			return fmt.Errorf("warm-up batch: %w", err)
		}
	}
	return nil
}

func (st *state) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.hs.Shutdown(ctx) // best effort: the process exits right after
	<-st.served
	for _, cl := range st.clients {
		cl.CloseIdleConnections()
	}
	_ = st.srv.Shutdown(ctx) // drains the batcher and the learn pipeline
}

// statusError is a non-2xx answer; 429 counts as refused.
type statusError struct{ code int }

func (e statusError) Error() string { return "HTTP " + strconv.Itoa(e.code) }

func (st *state) post(cl *http.Client, path string, body []byte, id int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, st.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set(benchIDHeader, strconv.Itoa(id))
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, statusError{resp.StatusCode}
	}
	return b, nil
}

func (st *state) classify(cl *http.Client, body []byte, id int) (monoclass.Label, int64, error) {
	b, err := st.post(cl, "/classify", body, id)
	if err != nil {
		return 0, 0, err
	}
	var r struct {
		Label   int   `json:"label"`
		Version int64 `json:"version"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return 0, 0, err
	}
	if r.Label != 0 && r.Label != 1 {
		return 0, 0, fmt.Errorf("label %d out of range", r.Label)
	}
	return monoclass.Label(r.Label), r.Version, nil
}

func (st *state) classifyBatch(cl *http.Client, body []byte) ([]int, int64, error) {
	b, err := st.post(cl, "/classify/batch", body, -1)
	if err != nil {
		return nil, 0, err
	}
	var r struct {
		Labels  []int `json:"labels"`
		Version int64 `json:"version"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, 0, err
	}
	return r.Labels, r.Version, nil
}

func count(t *tally, err error) {
	var se statusError
	if errors.As(err, &se) && se.code == http.StatusTooManyRequests {
		t.refused++
	} else {
		t.failed++
	}
}

// pointResult is one open-loop single-point phase.
type pointResult struct {
	latUS []float64 // due time → response read, per answered request
	lagUS []float64 // due time → request sent: how late the generator ran
	rttUS map[int]float64
	tally tally
}

func (r *pointResult) add(o pointResult) {
	r.latUS = append(r.latUS, o.latUS...)
	r.lagUS = append(r.lagUS, o.lagUS...)
	r.tally.add(o.tally)
}

// pointPhase sends single-point /classify requests open loop: each
// connection has a fixed schedule of pointRatePerConn requests per
// second and one request in flight, so a slow answer delays the next
// send and that delay counts in the next request's latency. Every
// label from the set-up model's version must equal its local answer.
func (st *state) pointPhase(conns int, dur time.Duration, traced bool) pointResult {
	interval := time.Duration(float64(time.Second) / pointRatePerConn)
	perConn := int(dur / interval)
	outs := make([]pointResult, conns)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[c]
			o.rttUS = map[int]float64{}
			offset := time.Duration(c) * interval / time.Duration(conns)
			for i := range perConn {
				due := start.Add(offset + time.Duration(i)*interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				q := (i*conns + c) % len(st.pointBodies)
				id := -1
				if traced {
					id = i*conns + c
				}
				label, version, err := st.classify(st.clients[c], st.pointBodies[q], id)
				done := time.Now()
				o.tally.sent++
				if err == nil && version == st.version && label != st.pointWant[q] {
					err = fmt.Errorf("label %d, model says %d", label, st.pointWant[q])
				}
				if err != nil {
					count(&o.tally, err)
					continue
				}
				o.tally.ok++
				o.latUS = append(o.latUS, us(done.Sub(due)))
				o.lagUS = append(o.lagUS, us(sent.Sub(due)))
				if traced {
					o.rttUS[id] = us(done.Sub(sent))
				}
			}
		}()
	}
	wg.Wait()
	r := pointResult{rttUS: map[int]float64{}}
	for _, o := range outs {
		r.add(o)
		for k, v := range o.rttUS {
			r.rttUS[k] = v
		}
	}
	return r
}

// batchResult is one closed-loop client-batch phase.
type batchResult struct {
	latUS   []float64 // per answered call
	points  int
	elapsed time.Duration
	tally   tally
}

// batchPhase runs one closed-loop client on the first connection: it
// posts the next pre-encoded 512-point body as soon as the previous
// answer arrives, and checks every label from the set-up model's
// version. One client keeps the client's own decoding from competing
// with the server for the two CPUs, which made two-client throughput
// swing ±10% between identical runs.
func (st *state) batchPhase(dur time.Duration) batchResult {
	var r batchResult
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		k := i % len(st.batchBodies)
		t0 := time.Now()
		labels, version, err := st.classifyBatch(st.clients[0], st.batchBodies[k])
		lat := time.Since(t0)
		r.tally.sent++
		if err == nil && version == st.version {
			err = sameLabels(labels, st.batchWant[k])
		}
		if err != nil {
			count(&r.tally, err)
			continue
		}
		r.tally.ok++
		r.latUS = append(r.latUS, us(lat))
		r.points += len(labels)
	}
	r.elapsed = time.Since(start)
	return r
}

func sameLabels(got []int, want []monoclass.Label) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d labels for %d points", len(got), len(want))
	}
	for i := range got {
		if got[i] != int(want[i]) {
			return fmt.Errorf("point %d: label %d, model says %d", i, got[i], want[i])
		}
	}
	return nil
}

// learnResult is the serve-churn write stream.
type learnResult struct {
	lagMS []float64 // due time → the updater's applied counters cover the delta
	tally tally
}

func (r *learnResult) add(o learnResult) {
	r.lagMS = append(r.lagMS, o.lagMS...)
	r.tally.add(o.tally)
}

// learnStream posts the deltas from index first on, one at a time,
// open loop at learnRate, on its own connection until stop closes. A
// watcher polls the updater's applied-delta counters and records, per
// delta, when they first cover it; learnStream returns once every
// delta it posted is applied. first must equal the number of deltas
// the server has accepted before.
func (st *state) learnStream(cl *http.Client, first int, stop <-chan struct{}) learnResult {
	u := st.srv.Learner().Updater()
	type posted struct {
		idx int
		due time.Time
	}
	sentCh := make(chan posted, len(st.learnBodies)) // one slot per delta: the sender never blocks
	var lags []float64
	stuck := 0
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for p := range sentCh {
			for applied(u) <= p.idx && time.Since(p.due) < time.Minute {
				time.Sleep(100 * time.Microsecond)
			}
			if applied(u) <= p.idx {
				stuck++
				continue
			}
			lags = append(lags, ms(time.Since(p.due)))
		}
	}()

	var r learnResult
	interval := time.Duration(float64(time.Second) / learnRate)
	start := time.Now().Add(time.Millisecond)
	accepted := first
send:
	for i, body := range st.learnBodies[first:] {
		due := start.Add(time.Duration(i) * interval)
		select {
		case <-stop:
			break send
		case <-time.After(time.Until(due)):
		}
		_, err := st.post(cl, "/learn", body, -1)
		r.tally.sent++
		if err != nil {
			// A lost delta would desynchronise the delete stream.
			count(&r.tally, err)
			break
		}
		r.tally.ok++
		sentCh <- posted{idx: accepted, due: due}
		accepted++
	}
	close(sentCh)
	<-watched
	r.lagMS = lags
	r.tally.ok -= stuck
	r.tally.failed += stuck
	return r
}

// applied is how many deltas the updater has processed, successfully
// or not.
func applied(u *online.Updater) int {
	s := u.Stats()
	return int(s.Inserts + s.Deletes + s.DeleteMisses + s.ApplyErrors)
}

// checkChurn is serve-churn's gate: every delta applied cleanly, and
// one exact re-solve of the updater matches a fresh
// PrepareProblem+TrainPrepared over its live set.
func (st *state) checkChurn(posted int) error {
	u := st.srv.Learner().Updater()
	deadline := time.Now().Add(60 * time.Second)
	for applied(u) < posted {
		if time.Now().After(deadline) {
			return fmt.Errorf("updater applied %d of %d deltas after 60s", applied(u), posted)
		}
		time.Sleep(time.Millisecond)
	}
	if s := u.Stats(); s.DeleteMisses+s.ApplyErrors > 0 {
		return fmt.Errorf("updater: %d delete misses, %d apply errors", s.DeleteMisses, s.ApplyErrors)
	}
	if err := u.Resolve(); err != nil {
		return fmt.Errorf("resolve: %w", err)
	}
	live := u.Live()
	p, err := monoclass.PrepareProblem(live, monoclass.ProblemOptions{})
	if err != nil {
		return fmt.Errorf("retrain prepare: %w", err)
	}
	sol, err := monoclass.TrainPrepared(p)
	if err != nil {
		return fmt.Errorf("retrain: %w", err)
	}
	if got := u.WErr(); !sameWErr(got, sol.WErr) {
		return fmt.Errorf("updater werr %g after resolve, retrain over %d live points %g", got, len(live), sol.WErr)
	}
	return nil
}

// ---- traced-run instruments ----

const benchIDHeader = "X-Bench-Id"

// spanLog keeps handler spans in memory, keyed by the request id the
// client sent.
type spanLog struct {
	mu    sync.Mutex
	spans map[int]time.Duration
	batch []time.Duration // /classify/batch handler spans
}

func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans, l.batch = map[int]time.Duration{}, nil
	l.mu.Unlock()
}

// timedHandler wraps the server's handler on the benchmark's own
// listener and records how long each request spent inside it.
type timedHandler struct {
	next http.Handler
	log  *spanLog
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	h.log.mu.Lock()
	defer h.log.mu.Unlock()
	switch {
	case r.URL.Path == "/classify/batch":
		h.log.batch = append(h.log.batch, d)
	case r.Header.Get(benchIDHeader) != "":
		if id, err := strconv.Atoi(r.Header.Get(benchIDHeader)); err == nil && h.log.spans != nil {
			h.log.spans[id] = d
		}
	}
}

// batcherReplay drives a standalone batcher with the server's default
// configuration on the single-point schedule and returns, per request,
// the Submit span, plus how many batches the workers dispatched.
func (st *state) batcherReplay(conns int, dur time.Duration) (submitUS []float64, batches int64, err error) {
	var mu sync.Mutex
	src := func() (classifier.Classifier, int64) {
		mu.Lock()
		batches++ // the batcher reads its source once per dispatched batch
		mu.Unlock()
		return st.model, 1
	}
	b := serve.NewBatcher(src, serve.BatcherConfig{}, nil)
	defer b.Close()
	interval := time.Duration(float64(time.Second) / pointRatePerConn)
	perConn := int(dur / interval)
	outs := make([][]float64, conns)
	errs := make([]error, conns)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			offset := time.Duration(c) * interval / time.Duration(conns)
			for i := range perConn {
				due := start.Add(offset + time.Duration(i)*interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				q := (i*conns + c) % numQueries
				t0 := time.Now()
				res, err := b.Submit(context.Background(), st.queries[q])
				outs[c] = append(outs[c], us(time.Since(t0)))
				if err == nil && res.Label != st.pointWant[q] {
					err = fmt.Errorf("batcher label %d, model says %d", res.Label, st.pointWant[q])
				}
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}()
	}
	wg.Wait()
	for c := range conns {
		submitUS = append(submitUS, outs[c]...)
		if errs[c] != nil && err == nil {
			err = errs[c]
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return submitUS, batches, err
}

// kernelTimes times the classify kernel directly: ns per single-point
// Classify over the query set, and ns per point of ClassifyBatchInto
// over the 512-point batch bodies' points. Each loop repeats until it
// has run for at least budget.
func (st *state) kernelTimes(budget time.Duration) (pointNS, batchNSPerPt float64) {
	queries := st.queries[:numQueries]
	var sink monoclass.Label
	n, t0 := 0, time.Now()
	for time.Since(t0) < budget {
		for _, q := range queries {
			sink ^= st.model.Classify(q)
		}
		n += len(queries)
	}
	pointNS = float64(time.Since(t0).Nanoseconds()) / float64(n)

	dst := make([]monoclass.Label, batchSize)
	n, t0 = 0, time.Now()
	for time.Since(t0) < budget {
		for i := range numBatchBodies {
			st.model.ClassifyBatchInto(dst, st.queries[numQueries+i*batchSize:numQueries+(i+1)*batchSize])
			sink ^= dst[0]
		}
		n += numBatchBodies * batchSize
	}
	batchNSPerPt = float64(time.Since(t0).Nanoseconds()) / float64(n)
	kernelSink = sink
	return pointNS, batchNSPerPt
}

// kernelSink keeps the timed classify loops from being optimised away.
var kernelSink monoclass.Label

// onlineReplayResult holds the standalone updater's spans and counters.
type onlineReplayResult struct {
	applyUS, resolveMS, swapUS []float64
	stats                      online.StatsSnapshot
}

// onlineReplay replays the first replayDeltas deltas of the trace into
// a standalone updater over the first onlineWindow training points,
// publishing through a timed Registry.Swap. Deltas that trigger an
// exact re-solve (the ExactSolves counter moves) are timed apart from
// the rest.
func (st *state) onlineReplay() (onlineReplayResult, error) {
	var r onlineReplayResult
	initial := st.ws[:min(len(st.ws), onlineWindow)]
	var reg *serve.Registry
	u, err := online.NewUpdater(st.w.dim, initial, online.Config{
		Publish: func(m *classifier.AnchorSet) error {
			t0 := time.Now()
			_, err := reg.Swap(m)
			r.swapUS = append(r.swapUS, us(time.Since(t0)))
			return err
		},
	})
	if err != nil {
		return r, fmt.Errorf("online updater: %w", err)
	}
	if reg, err = serve.NewRegistry(u.Model(), nil); err != nil {
		return r, fmt.Errorf("registry: %w", err)
	}
	deltas := st.deltas[:min(len(st.deltas), replayDeltas)]
	for _, d := range deltas {
		before := u.Stats().ExactSolves
		t0 := time.Now()
		err := u.Apply(d)
		dt := time.Since(t0)
		if err != nil {
			return r, fmt.Errorf("online apply: %w", err)
		}
		if u.Stats().ExactSolves > before {
			r.resolveMS = append(r.resolveMS, ms(dt))
		} else {
			r.applyUS = append(r.applyUS, us(dt))
		}
	}
	r.stats = u.Stats()
	return r, nil
}
