// Package server is the HTTP/JSON surface of the spectrald daemon: a
// thin REST layer that parses and validates requests and maps outcomes
// to status codes over the internal/jobs worker pool, which owns the
// content-addressed netlist store and the spectrum cache and applies
// ECO deltas.
//
// API (all bodies JSON unless noted):
//
//	GET  /healthz                  liveness; 503 while draining
//	GET  /metrics                  Prometheus text format
//	POST /v1/netlists              upload a netlist (text or hMETIS body,
//	                               ?format=text|hmetis) or generate a
//	                               benchmark (JSON {"benchmark","scale","seed"});
//	                               returns its content hash
//	GET  /v1/netlists              list stored netlists, least recently
//	                               used first
//	GET  /v1/netlists/{hash}       one stored netlist's statistics
//	                               (?format=text exports the full body)
//	POST /v1/netlists/{hash}/delta submit an incremental partitioning job
//	                               for an ECO delta to a stored base
//	                               netlist, warm-started from the base's
//	                               cached spectrum; 202 on accept, 404 for
//	                               an unknown base, 422 for a delta that
//	                               does not apply
//	POST /v1/jobs                  submit a job; 202 on accept, 429 when
//	                               the queue is full, 503 while draining
//	GET  /v1/jobs                  list jobs
//	GET  /v1/jobs/{id}             job status (includes result when done)
//	GET  /v1/jobs/{id}/result      result only; 409 until the job is done
//	DELETE /v1/jobs/{id}           request cancellation
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	spectral "repro"
	"repro/internal/delta"
	"repro/internal/jobs"
	"repro/internal/trace"
)

// maxBodyBytes bounds every request body the server reads.
const maxBodyBytes = 64 << 20

// Config configures the server.
type Config struct {
	// Tracer, when set, is the daemon's tracer: /metrics renders its
	// per-span timings and counter totals as the Prometheus bridge.
	Tracer *trace.Tracer
}

// Server is the spectrald HTTP handler. Create with New; it implements
// http.Handler.
type Server struct {
	cfg   Config
	pool  *jobs.Pool
	mux   *http.ServeMux
	start time.Time

	draining atomic.Bool
}

// New wires a server over a pool (started, or about to be).
func New(pool *jobs.Pool, cfg Config) *Server {
	s := &Server{
		cfg:   cfg,
		pool:  pool,
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/netlists", s.handlePostNetlist)
	s.mux.HandleFunc("GET /v1/netlists", s.handleListNetlists)
	s.mux.HandleFunc("GET /v1/netlists/{hash}", s.handleGetNetlist)
	s.mux.HandleFunc("POST /v1/netlists/{hash}/delta", s.handlePostDelta)
	s.mux.HandleFunc("POST /v1/jobs", s.handlePostJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleGetResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetDraining flips the server into shutdown mode: /healthz reports 503
// (so load balancers stop routing here) and job submission is refused.
// Status, result and cancellation endpoints keep working so clients can
// collect what finished.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.start).Seconds(),
	})
}

// generateRequest is the JSON body of a benchmark-generation upload.
type generateRequest struct {
	Benchmark string  `json:"benchmark"`
	Scale     float64 `json:"scale"`
	Seed      int64   `json:"seed"`
}

func (s *Server) handlePostNetlist(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var (
		name string
		h    *spectral.Netlist
		err  error
	)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req generateRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		if req.Scale == 0 {
			req.Scale = 1
		}
		h, err = spectral.GenerateBenchmarkSeeded(req.Benchmark, req.Scale, req.Seed)
		name = req.Benchmark
	} else {
		switch format := r.URL.Query().Get("format"); format {
		case "hmetis":
			h, err = spectral.LoadHMetis(body)
		case "", "text":
			name, h, err = spectral.LoadNetlist(body)
		default:
			writeError(w, http.StatusBadRequest, "unknown format %q (want text|hmetis)", format)
			return
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse netlist: %v", err)
		return
	}
	if err := spectral.ValidateNetlist(h); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "invalid netlist: %v", err)
		return
	}
	st, err := s.pool.AddNetlist(name, h)
	if err != nil {
		s.writePoolError(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleListNetlists(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"netlists": s.pool.Netlists()})
}

func (s *Server) handleGetNetlist(w http.ResponseWriter, r *http.Request) {
	h, st, ok := s.pool.Netlist(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown netlist %q", r.PathValue("hash"))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "":
		writeJSON(w, http.StatusOK, st)
	case "text":
		// Full-body export in the text interchange format — the inverse
		// of POST /v1/netlists, so a stored (or delta-derived) netlist
		// can be fed to offline tools or another daemon.
		var buf bytes.Buffer
		if err := spectral.SaveNetlist(&buf, st.Name, h); err != nil {
			writeError(w, http.StatusInternalServerError, "serialize netlist: %v", err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want text)", format)
	}
}

// jobRequest is the JSON body of a job submission.
type jobRequest struct {
	// Netlist is the content hash of a stored netlist.
	Netlist string `json:"netlist"`
	// Kind is "partition" (default) or "order".
	Kind string `json:"kind"`
	// Options are the job's options in spectral.Options' JSON spelling;
	// zero values select the façade defaults. Parallelism is the
	// daemon's -parallelism flag, not the client's: the handlers drop
	// it.
	spectral.Options
	// Timeout is the job's end-to-end deadline (queue wait included) as
	// a Go duration string, e.g. "30s". The Spectrald-Timeout request
	// header is an alternative spelling; the body field wins when both
	// are set. Empty means no deadline.
	Timeout string `json:"timeout"`
}

// parseTimeout resolves the request deadline from the body field or the
// Spectrald-Timeout header.
func parseTimeout(req jobRequest, r *http.Request) (time.Duration, error) {
	raw := req.Timeout
	if raw == "" {
		raw = r.Header.Get("Spectrald-Timeout")
	}
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad timeout %q: %v", raw, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("bad timeout %q: must not be negative", raw)
	}
	return d, nil
}

func (s *Server) handlePostJob(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req jobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	h, st, ok := s.pool.Netlist(req.Netlist)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown netlist %q (upload it via POST /v1/netlists first)", req.Netlist)
		return
	}
	timeout, err := parseTimeout(req, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch req.Kind {
	case "", string(jobs.KindPartition), string(jobs.KindOrder):
	default:
		writeError(w, http.StatusBadRequest, "unknown kind %q (want partition|order)", req.Kind)
		return
	}
	req.Parallelism = 0
	j, err := s.pool.Submit(jobs.Request{Netlist: h, Hash: st.Hash, Kind: jobs.Kind(req.Kind), Opts: req.Options, Timeout: timeout})
	if err != nil {
		s.writePoolError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// writePoolError maps a pool failure onto HTTP: 429 with backoff, 503
// while shutting down or when the journal cannot make the request
// durable (so it was not accepted), 404 for a delta's unknown base, 422
// for a delta that does not apply, and code for anything else, such as
// a request the pool rejects as invalid.
func (s *Server) writePoolError(w http.ResponseWriter, err error, code int) {
	switch {
	case errors.Is(err, jobs.ErrUnknownNetlist):
		writeError(w, http.StatusNotFound, "%v (upload it via POST /v1/netlists first)", err)
	case errors.Is(err, jobs.ErrBadDelta):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, jobs.ErrQueueFull):
		// Derived backoff: queued work ahead of the client in
		// worker-widths times the median recent job duration (see
		// jobs.RetryAfter), instead of a hard-coded constant.
		retry := s.pool.RetryAfter()
		secs := int(math.Ceil(retry.Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":             "queue full, retry later",
			"retryAfterSeconds": secs,
		})
	case errors.Is(err, jobs.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "shutting down")
	case errors.Is(err, jobs.ErrJournal):
		writeError(w, http.StatusServiceUnavailable, "journal unavailable: %v", err)
	default:
		writeError(w, code, "%v", err)
	}
}

// deltaRequest is the JSON body of an incremental (ECO) submission: the
// delta to apply plus the partitioning options of an ordinary job
// request (kind is implicitly "delta"; the netlist is the path's base).
type deltaRequest struct {
	jobRequest
	Delta *delta.Delta `json:"delta"`
}

// handlePostDelta submits an incremental partitioning job for an ECO
// delta against a stored base netlist. The pool applies the delta at
// submission, so structural errors (unknown net names, out-of-range
// modules) surface as a 422 here, not as a failed job; the mutated
// netlist enters the content-addressed store under its own fingerprint
// and the response reports it alongside the job status.
func (s *Server) handlePostDelta(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req deltaRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	timeout, err := parseTimeout(req.jobRequest, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.Parallelism = 0
	j, err := s.pool.Submit(jobs.Request{
		Kind:     jobs.KindDelta,
		Opts:     req.Options,
		Timeout:  timeout,
		BaseHash: r.PathValue("hash"),
		Delta:    req.Delta,
	})
	if err != nil {
		s.writePoolError(w, err, http.StatusBadRequest)
		return
	}
	// Both netlist bodies are journaled by now, so the hashes in this
	// acknowledgement stay resolvable across a daemon restart.
	st := j.Status()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"job":     st,
		"netlist": st.Hash,
		"base":    st.BaseHash,
		"reach":   j.Reach(),
	})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.pool.Jobs()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pool.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pool.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	res, err := j.Result()
	if err != nil {
		switch j.State() {
		case jobs.Failed, jobs.Cancelled:
			writeJSON(w, http.StatusOK, map[string]any{"state": j.State(), "error": err.Error()})
		default:
			writeError(w, http.StatusConflict, "job %s is %s", j.ID(), j.State())
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"state": jobs.Done, "result": res})
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.pool.Job(id); !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	cancelled := s.pool.Cancel(id)
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelled": cancelled})
}
