package serve

import (
	"errors"
	"fmt"
	"net/http"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/online"
)

// OnlineConfig enables the incremental learning pipeline: a POST
// /learn endpoint feeding an online.Updater whose models are promoted
// through the registry behind the configured Audit gate.
type OnlineConfig struct {
	// Initial is the training multiset the updater starts from —
	// normally the set the server's initial model was trained on, so
	// the updater's internal state matches what is being served. May
	// be empty for a cold start (the initial model — ConstNegative for
	// a blank slate — still fixes the dimensionality).
	Initial geom.WeightedSet
	// RebuildEvery and MaxDrift tune the rebuild policy (see
	// online.Config).
	RebuildEvery int
	MaxDrift     float64
	// QueueCap bounds the delta intake queue (see
	// online.PipelineConfig).
	QueueCap int
}

// newLearner builds the updater and pipeline for a server whose
// registry already exists; every model the updater produces is offered
// to the registry, so the Audit gate vets interim and exact models
// alike.
func (s *Server) newLearner(oc *OnlineConfig) error {
	dim := s.reg.Dim()
	for i, wp := range oc.Initial {
		if len(wp.P) != dim {
			return fmt.Errorf("serve: online initial point %d has dimension %d, model serves %d", i, len(wp.P), dim)
		}
	}
	u, err := online.NewUpdater(dim, oc.Initial, online.Config{
		RebuildEvery: oc.RebuildEvery,
		MaxDrift:     oc.MaxDrift,
		Publish: func(m *classifier.AnchorSet) error {
			_, err := s.reg.Swap(m)
			return err
		},
	})
	if err != nil {
		return err
	}
	s.pipe = online.NewPipeline(u, online.PipelineConfig{QueueCap: oc.QueueCap})
	return nil
}

// Learner exposes the online pipeline (nil when OnlineConfig was not
// set), for CLI wiring and tests.
func (s *Server) Learner() *online.Pipeline { return s.pipe }

// ---- wire types ----

type learnDelta struct {
	Op    string     `json:"op"` // "insert" or "delete"
	Point learnPoint `json:"point"`
	// Label decodes as a byte, so a label outside 0–255 is a decode
	// error rather than wrapping onto 0 or 1.
	Label  geom.Label `json:"label"`
	Weight float64    `json:"weight,omitempty"` // insert only
}

// learnPoint is a delta's coordinates, parsed by the classify wire
// codec so that a null coordinate is rejected instead of read as 0.
type learnPoint geom.Point

// UnmarshalJSON implements json.Unmarshaler.
func (p *learnPoint) UnmarshalJSON(data []byte) error {
	d := wireDecoder{b: data}
	if err := d.point(); err != nil {
		return err
	}
	*p = learnPoint(d.flat)
	return nil
}

type learnRequest struct {
	Deltas []learnDelta `json:"deltas"`
}

type learnResponse struct {
	Accepted   int `json:"accepted"`
	QueueDepth int `json:"queue_depth"`
}

// handleLearn enqueues a batch of deltas for asynchronous application:
// 202 when everything was queued, 400 on the first malformed delta
// (none queued — validation is all-or-nothing), 429 with the accepted
// count when the bounded queue filled mid-batch, 404 when online
// learning is not enabled.
func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	if s.pipe == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "online learning not enabled"})
		return
	}
	var req learnRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Deltas) == 0 {
		s.badRequest(w, "empty delta list")
		return
	}
	if len(req.Deltas) > s.cfg.MaxClientBatch {
		s.stats.AddBadRequest()
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("batch of %d deltas exceeds limit %d", len(req.Deltas), s.cfg.MaxClientBatch)})
		return
	}
	ds := make([]online.Delta, len(req.Deltas))
	for i, ld := range req.Deltas {
		var op online.Op
		switch ld.Op {
		case "insert":
			op = online.OpInsert
		case "delete":
			op = online.OpDelete
		default:
			s.badRequest(w, fmt.Sprintf("delta %d: unknown op %q", i, ld.Op))
			return
		}
		ds[i] = online.Delta{Op: op, Point: geom.Point(ld.Point), Label: ld.Label, Weight: ld.Weight}
	}
	accepted, err := s.pipe.EnqueueBatch(ds)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, learnResponse{Accepted: accepted, QueueDepth: s.pipe.QueueDepth()})
	case errors.Is(err, online.ErrQueueFull):
		s.stats.AddRejected(len(ds) - accepted)
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusTooManyRequests, learnResponse{Accepted: accepted, QueueDepth: s.pipe.QueueDepth()})
	case errors.Is(err, online.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		var be *online.BatchError
		if errors.As(err, &be) {
			s.badRequest(w, fmt.Sprintf("delta %d: %v", be.Index, be.Err))
			return
		}
		s.badRequest(w, err.Error())
	}
}
