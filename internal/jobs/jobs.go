// Package jobs is the execution engine of the spectrald daemon: a
// bounded FIFO queue feeding a fixed worker pool, with per-job
// cooperative cancellation wired into the façade's
// DecomposeWarmCtxPolicy / PartitionWithSpectrum /
// OrderModulesWithSpectrum pipeline (and through it the
// internal/resilience eigensolver ladder), and a content-addressed
// spectrum cache (internal/speccache) so repeated requests against the
// same netlist reuse one eigendecomposition across methods, K values
// and d-sweeps. It also owns the daemon's netlist store (netlists.go).
//
// Lifecycle: a submitted job is pending until a worker picks it up,
// running while the pipeline executes, and ends done, failed or
// cancelled. The queue is bounded: Submit never blocks, returning
// ErrQueueFull for the daemon to surface as HTTP 429 backpressure.
package jobs

import (
	"context"
	"errors"
	"sync"
	"time"

	spectral "repro"
	"repro/internal/delta"
)

// Kind selects what a job computes.
type Kind string

const (
	// KindPartition runs a full K-way partition of the netlist.
	KindPartition Kind = "partition"
	// KindOrder computes a MELO module ordering (the paper's primary
	// artifact) without splitting it.
	KindOrder Kind = "order"
	// KindDelta partitions the netlist produced by applying an ECO
	// delta to a content-addressed base, warm-starting the eigensolve
	// from the base's cached spectrum and reporting a
	// partition-stability comparison against the base partition.
	KindDelta Kind = "delta"
)

func (k Kind) known() bool { return k == KindPartition || k == KindOrder || k == KindDelta }

// State is a job's lifecycle state.
type State string

const (
	Pending   State = "pending"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Errors returned by Submit.
var (
	// ErrQueueFull reports that the bounded queue is at capacity; the
	// caller should retry later (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShuttingDown reports that the pool no longer accepts work.
	ErrShuttingDown = errors.New("jobs: pool is shutting down")
	// ErrUnknownNetlist reports that a delta job names a base the
	// netlist store does not hold (HTTP 404).
	ErrUnknownNetlist = errors.New("jobs: unknown netlist")
	// ErrBadDelta reports an ECO delta that does not apply to its base
	// (HTTP 422).
	ErrBadDelta = errors.New("jobs: apply delta")
)

// Request describes one unit of work.
type Request struct {
	// Netlist is the instance to process. Required, except by a
	// KindDelta job, whose netlist Submit derives.
	Netlist *spectral.Netlist
	// Hash is the netlist's content fingerprint used as the spectrum
	// cache key; empty means "compute it from the netlist".
	Hash string
	// Kind selects partition, ordering or delta. Default KindPartition.
	Kind Kind
	// Opts configures the job. A KindOrder job is the MELO partition
	// pipeline stopped before the split: it reads only D and Scheme
	// (0 selects the façade defaults), and Submit clears the rest.
	Opts spectral.Options
	// Timeout, when positive, is the job's end-to-end deadline measured
	// from submission — queue wait included. It propagates into the
	// job's context, so the whole solver pipeline observes it; an
	// expired deadline fails the job with context.DeadlineExceeded.
	// After a crash/replay the deadline re-anchors at restart.
	Timeout time.Duration

	// KindDelta fields. BaseHash names a stored netlist, the base whose
	// cached spectrum seeds the warm start and whose partition anchors
	// the stability report, and Delta is the ECO edit to apply to it.
	// Submit resolves the base and applies the delta; the result becomes
	// the job's Netlist and Hash, and is stored once the job is admitted.
	BaseHash string
	Delta    *delta.Delta

	// base and reach are the resolved base netlist and the delta's
	// measured extent, set by Submit or, for a replayed job, Restore.
	base  *spectral.Netlist
	reach *delta.Reach
}

// Result is the output of a finished job.
type Result struct {
	// Assign and K hold the partitioning of a KindPartition job.
	Assign Labels `json:"assign,omitempty"`
	K      int    `json:"k,omitempty"`
	// NetCut and ScaledCost evaluate the partitioning.
	NetCut     int     `json:"netCut,omitempty"`
	ScaledCost float64 `json:"scaledCost,omitempty"`
	// Order holds the module ordering of a KindOrder job.
	Order []int `json:"order,omitempty"`
	// SpectrumCacheHit reports that the job reused a cached
	// eigendecomposition and skipped its eigensolve.
	SpectrumCacheHit bool `json:"spectrumCacheHit"`

	// KindDelta extras.
	//
	// BaseHash echoes the base the delta was applied against. WarmStart
	// reports how the eigensolve used the base spectrum ("accepted",
	// "seeded", "rejected", "cold" — see spectral.WarmInfo). Reach is
	// the perturbation's measured extent, and Stability compares the
	// delta partition against the base partition.
	BaseHash  string              `json:"baseHash,omitempty"`
	WarmStart string              `json:"warmStart,omitempty"`
	Reach     *delta.Reach        `json:"reach,omitempty"`
	Stability *spectral.Stability `json:"stability,omitempty"`
}

// Status is a JSON-ready snapshot of a job.
type Status struct {
	ID       string     `json:"id"`
	Kind     Kind       `json:"kind"`
	State    State      `json:"state"`
	Method   string     `json:"method,omitempty"`
	K        int        `json:"k,omitempty"`
	D        int        `json:"d,omitempty"`
	Hash     string     `json:"netlist,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Stage latencies in seconds: time spent queued, obtaining the
	// eigendecomposition (0 on a cache hit), and in the downstream
	// solve.
	QueueSeconds    float64 `json:"queueSeconds"`
	SpectrumSeconds float64 `json:"spectrumSeconds"`
	SolveSeconds    float64 `json:"solveSeconds"`
	// TimeoutSeconds echoes the request deadline (0 = none).
	TimeoutSeconds float64 `json:"timeoutSeconds,omitempty"`
	// ShedFromD is the eigenvector count the job would have used (its
	// requested d, defaulted) when overload control degraded it to a
	// smaller decomposition.
	ShedFromD int `json:"shedFromD,omitempty"`
	// BaseHash identifies a KindDelta job's base netlist.
	BaseHash string `json:"baseHash,omitempty"`
	// Restored marks a job recovered from the journal after a restart.
	Restored bool    `json:"restored,omitempty"`
	Result   *Result `json:"result,omitempty"`
}

// Job is one tracked unit of work. All methods are safe for concurrent
// use.
type Job struct {
	id string
	// req is immutable once the job is published, except that finish
	// clears its Netlist and base under mu: read those fields under mu
	// wherever a finish may run concurrently.
	req    Request
	ctx    context.Context
	cancel func()

	// shedFromD is the d the client asked for before load shedding
	// degraded the request (0 = not shed). restored marks a job rebuilt
	// from the journal after a crash. enqueued is when the job last
	// entered the queue — it matches created for fresh submissions but
	// re-anchors at restart for replayed jobs, so MaxQueueWait never
	// charges queue wait a crash already destroyed. All three are set
	// before the job is published and immutable afterwards.
	shedFromD int
	restored  bool
	enqueued  time.Time

	mu                              sync.Mutex
	state                           State
	err                             error
	result                          *Result
	created                         time.Time
	started                         time.Time
	finished                        time.Time
	queueDur, spectrumDur, solveDur time.Duration

	done chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Reach returns a delta job's measured perturbation; nil for the other
// kinds.
func (j *Job) Reach() *delta.Reach { return j.req.reach }

// Cancel requests cooperative cancellation. It is a no-op after the job
// finished.
func (j *Job) Cancel() { j.cancel() }

// Result returns the finished job's result, or the error it failed
// with. Calling it before the job finished returns an error.
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case Done:
		return j.result, nil
	case Failed, Cancelled:
		return nil, j.err
	default:
		return nil, errors.New("jobs: job has not finished")
	}
}

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	o := j.req.Opts
	s := Status{
		ID:              j.id,
		Kind:            j.req.Kind,
		State:           j.state,
		Method:          o.Method.String(),
		K:               o.K,
		D:               o.D,
		Hash:            j.req.Hash,
		Created:         j.created,
		QueueSeconds:    j.queueDur.Seconds(),
		SpectrumSeconds: j.spectrumDur.Seconds(),
		SolveSeconds:    j.solveDur.Seconds(),
		TimeoutSeconds:  j.req.Timeout.Seconds(),
		ShedFromD:       j.shedFromD,
		BaseHash:        j.req.BaseHash,
		Restored:        j.restored,
		Result:          j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// markStarted transitions pending → running and records the queue wait.
func (j *Job) markStarted(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = Running
	j.started = now
	j.queueDur = now.Sub(j.created)
}

// finish transitions to the terminal state for (result, err) and drops
// the job's netlists: a finished job is served, and journaled, from its
// result alone, so keeping them would pin up to MaxJobs netlists.
func (j *Job) finish(res *Result, err error, cancelled bool, now time.Time) State {
	j.mu.Lock()
	j.req.Netlist, j.req.base = nil, nil
	switch {
	case err == nil:
		j.state, j.result = Done, res
	case cancelled:
		j.state, j.err = Cancelled, err
	default:
		j.state, j.err = Failed, err
	}
	j.finished = now
	if j.started.IsZero() {
		// Never ran: cancelled while queued.
		j.started = now
		j.queueDur = now.Sub(j.created)
	}
	st := j.state
	j.mu.Unlock()
	close(j.done)
	return st
}

func (j *Job) recordSpectrum(d time.Duration) {
	j.mu.Lock()
	j.spectrumDur = d
	j.mu.Unlock()
}

func (j *Job) recordSolve(d time.Duration) {
	j.mu.Lock()
	j.solveDur = d
	j.mu.Unlock()
}
