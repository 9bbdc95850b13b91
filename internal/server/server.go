// Package server is the HTTP/JSON surface of the spectrald daemon: a
// content-addressed netlist store plus a thin REST layer over the
// internal/jobs worker pool and its spectrum cache.
//
// API (all bodies JSON unless noted):
//
//	GET  /healthz                  liveness; 503 while draining
//	GET  /metrics                  Prometheus text format
//	POST /v1/netlists              upload a netlist (text or hMETIS body,
//	                               ?format=text|hmetis) or generate a
//	                               benchmark (JSON {"benchmark","scale","seed"});
//	                               returns its content hash
//	GET  /v1/netlists              list stored netlists
//	GET  /v1/netlists/{hash}       one stored netlist's statistics
//	                               (?format=text exports the full body)
//	POST /v1/netlists/{hash}/delta apply an ECO delta to a stored base
//	                               netlist and submit an incremental
//	                               partitioning job warm-started from the
//	                               base's cached spectrum; 202 on accept
//	POST /v1/jobs                  submit a job; 202 on accept, 429 when
//	                               the queue is full, 503 while draining
//	GET  /v1/jobs                  list jobs
//	GET  /v1/jobs/{id}             job status (includes result when done)
//	GET  /v1/jobs/{id}/result      result only; 409 until the job is done
//	DELETE /v1/jobs/{id}           request cancellation
//	GET  /v1/spectra               shard protocol: serve a cached encoded
//	                               spectrum (?hash=&model=&pairs=); 404 on miss
//	PUT  /v1/spectra               shard protocol: accept a peer's computed
//	                               spectrum (octet-stream body)
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
	"sync"
	"sync/atomic"
	"time"

	spectral "repro"
	"repro/internal/delta"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/speccache"
	"repro/internal/trace"
)

// Config sizes the server. Zero fields select the noted defaults.
type Config struct {
	// MaxNetlists bounds the content-addressed netlist store; the
	// oldest uploads are evicted first. Default 128.
	MaxNetlists int
	// MaxBodyBytes bounds request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// Tracer, when set, is the daemon's tracer: /metrics renders its
	// per-span timings and counter totals as the Prometheus bridge.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxNetlists <= 0 {
		c.MaxNetlists = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

type storedNetlist struct {
	Hash    string    `json:"hash"`
	Name    string    `json:"name,omitempty"`
	Modules int       `json:"modules"`
	Nets    int       `json:"nets"`
	Pins    int       `json:"pins"`
	Stored  time.Time `json:"stored"`

	h *spectral.Netlist
}

// Server is the spectrald HTTP handler. Create with New; it implements
// http.Handler.
type Server struct {
	cfg   Config
	pool  *jobs.Pool
	mux   *http.ServeMux
	start time.Time

	draining atomic.Bool

	// shard, when set via ConfigureSharding, proxies spectrum traffic
	// to peer instances; the counters track the serving side of that
	// protocol (see shard.go).
	shard             *shardClient
	peerFetchesServed atomic.Uint64
	peerFetchMisses   atomic.Uint64
	adoptedSpectra    atomic.Uint64
	adoptRejects      atomic.Uint64

	mu       sync.Mutex
	netlists map[string]*storedNetlist
	netOrder []string // insertion order for eviction
}

// New wires a server over a pool (started, or about to be). When the
// pool is durable, uploaded netlists are journaled and included in
// journal compactions so a restarted daemon can serve the same hashes.
func New(pool *jobs.Pool, cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		pool:     pool,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		netlists: make(map[string]*storedNetlist),
	}
	if pool.Journal() != nil {
		pool.SetSnapshotExtra(s.snapshotNetlists)
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
	// Shard protocol endpoints (shard.go). Registered unconditionally:
	// a non-sharded daemon still serves its cached spectra, which is
	// harmless and lets operators mix configurations during rollout.
	s.mux.HandleFunc("GET /v1/spectra", s.handleGetSpectrum)
	s.mux.HandleFunc("PUT /v1/spectra", s.handlePutSpectrum)
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
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
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
	st := s.store(name, h)
	// Journal the upload before acknowledging it: a client that got a
	// 201 must find the hash usable after a daemon restart, so a netlist
	// that cannot be journaled — whether serialization or the append
	// failed — must not be acknowledged as durable.
	if jnl := s.pool.Journal(); jnl != nil {
		var saveErr error
		err := jnl.AppendNetlist(st.Hash, name, func() ([]byte, error) {
			var buf bytes.Buffer
			saveErr = spectral.SaveNetlist(&buf, name, h)
			return buf.Bytes(), saveErr
		}, time.Now().UnixNano())
		if saveErr != nil {
			writeError(w, http.StatusInternalServerError, "journal netlist: %v", saveErr)
			return
		}
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "journal unavailable: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusCreated, st)
}

// store registers the netlist under its content hash, evicting the
// oldest stored netlists beyond capacity. Re-uploading is idempotent.
func (s *Server) store(name string, h *spectral.Netlist) *storedNetlist {
	hash := speccache.Fingerprint(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.netlists[hash]; ok {
		return st
	}
	stats := h.Stats()
	st := &storedNetlist{
		Hash:    hash,
		Name:    name,
		Modules: stats.Modules,
		Nets:    stats.Nets,
		Pins:    stats.Pins,
		Stored:  time.Now(),
		h:       h,
	}
	s.netlists[hash] = st
	s.netOrder = append(s.netOrder, hash)
	for len(s.netOrder) > s.cfg.MaxNetlists {
		oldest := s.netOrder[0]
		s.netOrder = s.netOrder[1:]
		delete(s.netlists, oldest)
	}
	return st
}

// AdoptNetlists installs netlists recovered by a journal replay (see
// jobs.Pool.Restore) into the content-addressed store, so clients can
// reference pre-crash hashes immediately after a restart. Call before
// serving.
func (s *Server) AdoptNetlists(nets map[string]jobs.RestoredNetlist) {
	for _, rn := range nets {
		s.store(rn.Name, rn.Netlist)
	}
}

// snapshotNetlists contributes the store's contents to journal
// compactions: a stored netlist must survive a compaction even when no
// live job references it.
func (s *Server) snapshotNetlists() []journal.Record {
	s.mu.Lock()
	stored := make([]*storedNetlist, 0, len(s.netOrder))
	for _, hash := range s.netOrder {
		if st, ok := s.netlists[hash]; ok {
			stored = append(stored, st)
		}
	}
	s.mu.Unlock()
	recs := make([]journal.Record, 0, len(stored))
	for _, st := range stored {
		var buf bytes.Buffer
		if err := spectral.SaveNetlist(&buf, st.Name, st.h); err != nil {
			continue
		}
		recs = append(recs, journal.Record{
			Type: journal.TypeNetlist, Hash: st.Hash, Name: st.Name,
			Netlist: buf.Bytes(), UnixNS: st.Stored.UnixNano(),
		})
	}
	return recs
}

func (s *Server) lookup(hash string) (*storedNetlist, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.netlists[hash]
	return st, ok
}

func (s *Server) handleListNetlists(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]*storedNetlist, 0, len(s.netOrder))
	for _, hash := range s.netOrder {
		if st, ok := s.netlists[hash]; ok {
			list = append(list, st)
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"netlists": list})
}

func (s *Server) handleGetNetlist(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r.PathValue("hash"))
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
		if err := spectral.SaveNetlist(&buf, st.Name, st.h); err != nil {
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
	// Method names the partitioning algorithm (see ParseMethod);
	// default "melo". Ignored for kind "order".
	Method string `json:"method"`
	// K, D, Scheme, MinFrac, Refine mirror spectral.Options; zero
	// values select the façade defaults.
	K       int     `json:"k"`
	D       int     `json:"d"`
	Scheme  int     `json:"scheme"`
	MinFrac float64 `json:"minFrac"`
	Refine  bool    `json:"refine"`
	// CoarsenThreshold, MaxLevels and RefinePasses mirror the multilevel
	// fields of spectral.Options (method "mlmelo"); zero values select
	// the façade defaults, and the flat methods ignore them.
	CoarsenThreshold int `json:"coarsenThreshold"`
	MaxLevels        int `json:"maxLevels"`
	RefinePasses     int `json:"refinePasses"`
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
		return 0, fmt.Errorf("bad timeout %q: must be positive", raw)
	}
	return d, nil
}

func (s *Server) handlePostJob(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req jobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	st, ok := s.lookup(req.Netlist)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown netlist %q (upload it via POST /v1/netlists first)", req.Netlist)
		return
	}
	timeout, err := parseTimeout(req, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jr := jobs.Request{Netlist: st.h, Hash: st.Hash, Timeout: timeout}
	switch req.Kind {
	case "", "partition":
		jr.Kind = jobs.KindPartition
		opts, err := partitionOptions(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		jr.Opts = opts
	case "order":
		jr.Kind = jobs.KindOrder
		jr.Opts = spectral.Options{D: req.D, Scheme: req.Scheme}
	default:
		writeError(w, http.StatusBadRequest, "unknown kind %q (want partition|order)", req.Kind)
		return
	}
	j, ok := s.submitJob(w, jr)
	if !ok {
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// partitionOptions translates the request's option fields into
// spectral.Options, shared by the partition and delta submissions.
func partitionOptions(req jobRequest) (spectral.Options, error) {
	method := spectral.MELO
	if req.Method != "" {
		var err error
		method, err = spectral.ParseMethod(req.Method)
		if err != nil {
			return spectral.Options{}, err
		}
	}
	return spectral.Options{
		K:                req.K,
		Method:           method,
		D:                req.D,
		Scheme:           req.Scheme,
		MinFrac:          req.MinFrac,
		Refine:           req.Refine,
		CoarsenThreshold: req.CoarsenThreshold,
		MaxLevels:        req.MaxLevels,
		RefinePasses:     req.RefinePasses,
	}, nil
}

// submitJob submits to the pool and maps submission failures onto HTTP
// semantics (429 with backoff, 503 draining/journal, 400 validation).
// It reports false after writing the error response.
func (s *Server) submitJob(w http.ResponseWriter, jr jobs.Request) (*jobs.Job, bool) {
	j, err := s.pool.Submit(jr)
	switch {
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
		return nil, false
	case errors.Is(err, jobs.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return nil, false
	case errors.Is(err, jobs.ErrJournal):
		// The job could not be made durable, so it was not accepted;
		// the client must not treat it as submitted.
		writeError(w, http.StatusServiceUnavailable, "journal unavailable: %v", err)
		return nil, false
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return j, true
}

// deltaRequest is the JSON body of an incremental (ECO) submission: the
// delta to apply plus the partitioning options of an ordinary job
// request (kind is implicitly "delta"; the netlist is the path's base).
type deltaRequest struct {
	jobRequest
	Delta *delta.Delta `json:"delta"`
}

// handlePostDelta applies an ECO delta to a stored base netlist and
// submits an incremental partitioning job against the result. The delta
// is applied synchronously so structural errors (unknown net names,
// out-of-range modules) surface as a 422 here, not as a failed job; the
// mutated netlist enters the content-addressed store under its own
// fingerprint and the response reports it alongside the job status.
func (s *Server) handlePostDelta(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	base, ok := s.lookup(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown netlist %q (upload it via POST /v1/netlists first)", r.PathValue("hash"))
		return
	}
	var req deltaRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Delta == nil {
		writeError(w, http.StatusBadRequest, "missing delta")
		return
	}
	timeout, err := parseTimeout(req.jobRequest, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts, err := partitionOptions(req.jobRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mut, reach, err := delta.Apply(base.h, req.Delta)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "apply delta: %v", err)
		return
	}
	mutSt := s.store(base.Name, mut)
	j, ok := s.submitJob(w, jobs.Request{
		Netlist:     mut,
		Hash:        mutSt.Hash,
		Kind:        jobs.KindDelta,
		Opts:        opts,
		Timeout:     timeout,
		BaseHash:    base.Hash,
		BaseNetlist: base.h,
		Delta:       req.Delta,
	})
	if !ok {
		return
	}
	// The job's durable journal entry (written inside Submit) carries
	// both netlist bodies, so the hashes in this acknowledgement stay
	// resolvable across a daemon restart.
	writeJSON(w, http.StatusAccepted, map[string]any{
		"job":     j.Status(),
		"netlist": mutSt.Hash,
		"base":    base.Hash,
		"reach":   reach,
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
