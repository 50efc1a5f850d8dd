package serve

import (
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

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/online"
	"monoclass/internal/problem"
)

// Config tunes a Server. The zero value is serviceable: default
// batching, no audit gate, 4096-point client batches.
type Config struct {
	// Batch configures the single-point dispatch pipeline.
	Batch BatcherConfig
	// Audit optionally gates POST /model promotions.
	Audit AuditFunc
	// MaxClientBatch caps the number of points accepted by a single
	// /classify/batch call (default 4096); larger requests get 413.
	MaxClientBatch int
	// MaxBodyBytes caps request body sizes (default 8 MiB).
	MaxBodyBytes int64
	// Online, when non-nil, enables the incremental learning pipeline
	// and the POST /learn endpoint (see OnlineConfig).
	Online *OnlineConfig
	// Prepare, when non-nil, records how the initial model's training
	// instance was prepared (problem.PrepareStats): /stats serves it
	// under "prepare" and GET /model answers X-Model-Width and
	// X-Model-Exact-Width headers: the chain count of the cover the
	// model was trained over, and whether an antichain certifies it
	// as the dominance width.
	Prepare *problem.PrepareStats
}

// Server is the HTTP serving layer: a Registry for hot-swappable
// models, a Batcher for single-point dispatch, and JSON endpoints:
//
//	POST /classify        {"point":[...]}          → {"label":L,"version":V}
//	POST /classify/batch  {"points":[[...],...]}   → {"labels":[...],"version":V}
//	POST /learn           {"deltas":[...]}         → {"accepted":N,"queue_depth":D} (with Config.Online)
//	GET  /model                                    → current model JSON (X-Model-Version header)
//	POST /model           model JSON               → {"version":V,"dim":D,"anchors":N}
//	GET  /healthz                                  → {"status":"ok","version":V,...}
//	GET  /stats                                    → StatsSnapshot
//
// Backpressure: when the batcher queue is full, /classify answers
// 429 with "Retry-After: 1" instead of queuing unboundedly; the learn
// queue behaves the same way.
type Server struct {
	cfg     Config
	reg     *Registry
	bat     *Batcher
	pipe    *online.Pipeline // nil unless Config.Online is set
	stats   *Stats
	mux     *http.ServeMux
	started time.Time

	mu   sync.Mutex
	ln   net.Listener
	hsrv *http.Server
}

// NewServer builds a server over an initial model. It starts the
// batcher's worker goroutines immediately (so the Handler is usable
// with httptest without Start); call Shutdown or Close to release
// them.
func NewServer(initial *classifier.AnchorSet, cfg Config) (*Server, error) {
	if cfg.MaxClientBatch <= 0 {
		cfg.MaxClientBatch = 4096
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	reg, err := NewRegistry(initial, cfg.Audit)
	if err != nil {
		return nil, err
	}
	stats := &Stats{}
	src := func() (classifier.Classifier, int64) {
		snap := reg.Snapshot()
		return snap.Model, snap.Version
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		bat:     NewBatcher(src, cfg.Batch, stats),
		stats:   stats,
		started: time.Now(),
	}
	if cfg.Online != nil {
		if err := s.newLearner(cfg.Online); err != nil {
			s.bat.Close()
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /learn", s.handleLearn)
	s.mux.HandleFunc("POST /classify", s.handleClassify)
	s.mux.HandleFunc("POST /classify/batch", s.handleClassifyBatch)
	s.mux.HandleFunc("GET /model", s.handleModelGet)
	s.mux.HandleFunc("POST /model", s.handleModelPost)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s, nil
}

// Registry exposes the model registry (for CLI wiring and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the HTTP handler tree, for mounting under httptest
// or an external server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves in a background goroutine, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.hsrv != nil {
		s.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("serve: server already started")
	}
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.mux}
	hsrv := s.hsrv
	s.mu.Unlock()
	go hsrv.Serve(ln) // Serve returns ErrServerClosed after Shutdown
	return ln.Addr(), nil
}

// Shutdown gracefully stops the server: no new connections, in-flight
// requests finish (bounded by ctx), then the batcher drains and its
// workers exit. Safe when Start was never called (handler-only use):
// it then just drains the batcher.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.mu.Lock()
	hsrv := s.hsrv
	s.hsrv = nil
	s.mu.Unlock()
	if hsrv != nil {
		err = hsrv.Shutdown(ctx)
	}
	// In-flight handlers are done (or abandoned at ctx deadline);
	// draining the queues now applies every delta and answers every
	// classify already accepted. The learner drains first so its final
	// model promotion is visible to the batcher's remaining work.
	if s.pipe != nil {
		s.pipe.Close()
	}
	s.bat.Close()
	return err
}

// Close is Shutdown with a short deadline, for defer convenience.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// ---- wire types ----

type swapResponse struct {
	Version int64 `json:"version"`
	Dim     int   `json:"dim"`
	Anchors int   `json:"anchors"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	pt, err := decodePoint(body)
	if err != nil {
		s.badRequest(w, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	if !s.checkPoint(w, pt) {
		return
	}
	res, err := s.bat.Submit(r.Context(), pt)
	if err != nil {
		s.classifyError(w, r, err, 1)
		return
	}
	s.stats.AddRequests(1)
	writeEncoded(w, appendPointResponse(make([]byte, 0, 48), res.Label, res.Version))
}

func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	pts, err := decodeBatch(body, s.cfg.MaxClientBatch)
	switch {
	case err == errTooManyPoints:
		s.stats.AddBadRequest()
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("batch exceeds limit %d", s.cfg.MaxClientBatch)})
		return
	case err != nil:
		s.badRequest(w, fmt.Sprintf("invalid request body: %v", err))
		return
	case len(pts) == 0:
		s.badRequest(w, "empty batch")
		return
	}
	for _, pt := range pts {
		if !s.checkPoint(w, pt) {
			return
		}
	}
	// A client batch is already a batch: classify it inline against one
	// snapshot through the model's batch kernel instead of re-queuing
	// point by point.
	snap := s.reg.Snapshot()
	labels := make([]geom.Label, len(pts))
	snap.Model.ClassifyBatchInto(labels, pts)
	s.stats.ObserveBatch(len(pts))
	s.stats.AddRequests(len(pts))
	writeEncoded(w, appendBatchResponse(make([]byte, 0, 48+2*len(labels)), labels, snap.Version))
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Model-Version", strconv.FormatInt(snap.Version, 10))
	if p := s.cfg.Prepare; p != nil {
		// Metadata travels in headers so the body bytes stay exactly
		// classifier.WriteModel's output (round-trip goldens depend on
		// that).
		w.Header().Set("X-Model-Width", strconv.Itoa(p.Width))
		w.Header().Set("X-Model-Exact-Width", strconv.FormatBool(p.ExactWidth))
		w.Header().Set("X-Model-Decompose-Path", p.DecomposePath)
	}
	classifier.WriteModel(w, snap.Model)
}

func (s *Server) handleModelPost(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	next, err := classifier.ReadModel(body)
	if err != nil {
		s.badRequest(w, fmt.Sprintf("invalid model: %v", err))
		return
	}
	version, err := s.reg.Swap(next)
	if err != nil {
		s.stats.AddBadRequest()
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, swapResponse{Version: version, Dim: next.Dim(), Anchors: len(next.Anchors())})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"version":   s.reg.Version(),
		"uptime_ms": time.Since(s.started).Milliseconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var snap StatsSnapshot
	s.stats.snapshotCounters(&snap)
	cur := s.reg.Snapshot()
	snap.QueueDepth = s.bat.QueueDepth()
	snap.QueueCap = s.bat.QueueCap()
	snap.ModelVersion = cur.Version
	snap.ModelAnchors = len(cur.Model.Anchors())
	snap.Swaps = s.reg.Swaps()
	snap.AuditRejects = s.reg.AuditRejects()
	snap.UptimeMillis = time.Since(s.started).Milliseconds()
	if s.pipe != nil {
		snap.Online = &OnlineStats{
			StatsSnapshot: s.pipe.Updater().Stats(),
			QueueDepth:    s.pipe.QueueDepth(),
			QueueCap:      s.pipe.QueueCap(),
		}
	}
	snap.Prepare = s.cfg.Prepare
	writeJSON(w, http.StatusOK, snap)
}

// ---- helpers ----

// readBody buffers a classify request body for the wire codec,
// answering 400 when it cannot be read or passes MaxBodyBytes.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
	if err != nil {
		s.badRequest(w, fmt.Sprintf("invalid request body: %v", err))
		return nil, false
	}
	return body, true
}

// decodeJSON parses the body into dst, answering 400 on garbage or on
// anything but whitespace after the JSON value.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		s.badRequest(w, fmt.Sprintf("invalid request body: %v", err))
		return false
	}
	return true
}

// checkPoint validates one coordinate vector against the registry
// dimension, answering 400 on mismatch.
func (s *Server) checkPoint(w http.ResponseWriter, pt geom.Point) bool {
	if len(pt) != s.reg.Dim() {
		s.badRequest(w, fmt.Sprintf("point has dimension %d, model serves dimension %d", len(pt), s.reg.Dim()))
		return false
	}
	return true
}

// classifyError maps batcher errors to HTTP statuses; n is how many
// points the failed call carried (for the reject counter).
func (s *Server) classifyError(w http.ResponseWriter, r *http.Request, err error, n int) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.stats.AddRejected(n)
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Client went away; 499-style. StatusRequestTimeout is the
		// closest standard code.
		writeJSON(w, http.StatusRequestTimeout, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// retryAfter is the Retry-After value, in seconds, on every 429 (both
// classify and learn): the shortest nonzero backoff the header can
// express.
const retryAfter = "1"

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.stats.AddBadRequest()
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
