package jobs

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	spectral "repro"
	"repro/internal/delta"
	"repro/internal/journal"
	"repro/internal/resilience"
	"repro/internal/speccache"
	"repro/internal/specstore"
	"repro/internal/trace"
)

// Config sizes a Pool. Zero fields select the noted defaults.
type Config struct {
	// Workers is the number of concurrent executors. Default
	// GOMAXPROCS, capped at 8.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker;
	// submissions beyond it are rejected with ErrQueueFull. Default 64.
	QueueDepth int
	// CacheEntries bounds the spectrum cache (decompositions, not
	// bytes). Default 32.
	CacheEntries int
	// MaxJobs bounds the number of finished jobs retained for status
	// queries; the oldest finished jobs are forgotten first. Default
	// 1024.
	MaxJobs int
	// MaxQueueWait, when positive, bounds how long a job may sit queued
	// before a worker picks it up; a job exceeding it fails instead of
	// running against a deadline it has already blown. Default 0 (no
	// bound).
	MaxQueueWait time.Duration
	// ShedPolicy selects what admission control does under sustained
	// queue pressure. Default ShedNone.
	ShedPolicy ShedPolicy
	// Journal, when set, makes the pool durable: accepted jobs and
	// their terminal states are logged so a restarted daemon can replay
	// them (see Restore). Default nil (no durability).
	Journal *journal.Journal
	// EigenPolicy configures the eigensolver resilience ladder for the
	// pool's spectrum fetches — the decompositions computed behind the
	// spectrum cache, cold or warm-started (a delta job's seeded
	// attempt is the ladder's attempt 0) — only; the zero value selects
	// the library defaults. The chaos harness injects deterministic
	// fault plans through it. The partition step takes no policy: its
	// own solves run under the default ladder. That covers mlmelo's
	// coarsest solve, which shares the policy of its run, and the rsb,
	// placement and barnes solves, which use their own.
	EigenPolicy resilience.EigenPolicy
	// CompactEvery is the number of journaled terminal transitions
	// between automatic journal compactions. Default 1024.
	CompactEvery int
	// Store, when set, is the persistent spectrum tier behind the
	// in-memory LRU (see speccache.Cache.Spectrum): misses consult it
	// before solving, and every solve is written through to it. The
	// pool does not close it. Default nil (no persistence).
	Store specstore.Store
	// MaxNetlists bounds the netlist store (see AddNetlist), which
	// evicts the least recently used netlist first, and with it the
	// delta stability report's memoized base partitions, one per stored
	// netlist. Default 128.
	MaxNetlists int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 32
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 1024
	}
	if c.MaxNetlists <= 0 {
		c.MaxNetlists = 128
	}
	return c
}

// StageStats accumulates latency for one pipeline stage across jobs.
type StageStats struct {
	Count        uint64  `json:"count"`
	TotalSeconds float64 `json:"totalSeconds"`
}

// Stats is a snapshot of the pool for /metrics.
type Stats struct {
	Pending, Running, Done, Failed, Cancelled int
	Submitted, Rejected                       uint64
	QueueDepth, QueueCapacity, Workers        int
	Cache                                     speccache.Stats
	QueueWait, Spectrum, Solve                StageStats
	// Computed counts eigendecompositions this process actually solved
	// — as opposed to serving from the LRU or the persistent store
	// (Cache.StoreHits). A warm restart against a populated store
	// should leave Computed at zero.
	Computed uint64
	// Warm* count KindDelta eigensolves by warm-start outcome (see
	// spectral.WarmInfo): Accepted refreshed the base spectrum without
	// solving, Seeded started Lanczos from it, Rejected fell back to a
	// cold solve after the seed failed its checks.
	WarmAccepted, WarmSeeded, WarmRejected uint64
	// Shed reports the admission controller's state and counters.
	Shed ShedStats
	// JournalErrors counts journal appends that failed (durable or
	// buffered); nonzero means the next compaction must succeed before
	// new work is durable again.
	JournalErrors uint64
	// Panics counts jobs that crashed the pipeline and were isolated
	// (the job failed; the worker survived).
	Panics uint64
	// RetryAfterSeconds is the current backoff hint quoted to rejected
	// clients.
	RetryAfterSeconds float64
}

// Pool runs jobs on a fixed set of workers fed by a bounded FIFO queue.
type Pool struct {
	cfg        Config
	cache      *speccache.Cache
	queue      chan *Job
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// runFn executes one job's work; tests substitute it to get
	// deterministic slow/blocking workloads.
	runFn func(ctx context.Context, j *Job) (*Result, error)

	// tracer, when set, receives per-job spans: a "job" root with a
	// retroactive "job.queue" child (queue wait) and a "job.run" child
	// wrapping the pipeline, whose own spans nest beneath it.
	tracer *trace.Tracer

	// jnl, when non-nil, receives lifecycle records (see durable.go);
	// shed and lat feed admission control (see overload.go).
	jnl  *journal.Journal
	shed *shedder
	lat  latRing

	// Solve counters (see Stats). Atomic because they are updated from
	// solve closures that run outside the pool lock.
	computed     atomic.Uint64
	warmAccepted atomic.Uint64
	warmSeeded   atomic.Uint64
	warmRejected atomic.Uint64

	mu            sync.Mutex
	jobs          map[string]*Job
	order         []string // insertion order, for bounded retention
	seq           int
	closed        bool
	submitted     uint64
	rejected      uint64
	panics        uint64
	journalErrors uint64
	finishSince   int  // terminal records since the last compaction
	compacting    bool // a compaction is in flight
	restored      *RestoreStats
	waitAgg       StageStats
	specAgg       StageStats
	solveAgg      StageStats

	// The netlist store (netlists.go); netLRU runs from least to most
	// recently used *NetlistInfo.
	netMu    sync.Mutex
	netLRU   list.List
	netItems map[string]*list.Element
}

// NewPool creates a stopped pool; call Start to launch the workers.
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		cfg:        cfg,
		cache:      speccache.New(cfg.CacheEntries, cfg.Store),
		netItems:   make(map[string]*list.Element),
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		jnl:        cfg.Journal,
		shed:       newShedder(cfg.ShedPolicy, cfg.QueueDepth),
	}
	p.runFn = p.run
	return p
}

// Start launches the worker goroutines.
func (p *Pool) Start() {
	for i := 0; i < p.cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
}

// Cache exposes the spectrum tier ladder, whose counters and store the
// serving layer reads for metrics.
func (p *Pool) Cache() *speccache.Cache { return p.cache }

// SetTracer attaches a tracer to the pool's job executions. Call before
// Start; a nil tracer (the default) leaves jobs untraced.
func (p *Pool) SetTracer(t *trace.Tracer) { p.tracer = t }

// Submit validates and enqueues a request. It never blocks: a full
// queue returns ErrQueueFull, a shut-down pool ErrShuttingDown. A delta
// job's base must be stored (else ErrUnknownNetlist) and its delta must
// apply (else ErrBadDelta); the netlist it produces is stored under the
// base's name once the job is admitted, so a refused delta job leaves
// nothing behind. On a durable pool the job is journaled before Submit
// returns — an error wrapping ErrJournal means the job was not durably
// accepted and the caller must not acknowledge it.
func (p *Pool) Submit(req Request) (*Job, error) {
	if req.Kind == "" {
		req.Kind = KindPartition
	}
	if !req.Kind.known() {
		return nil, fmt.Errorf("jobs: unknown kind %q", req.Kind)
	}
	var baseName string
	if req.Kind == KindDelta {
		var err error
		if baseName, err = p.resolveDelta(&req); err != nil {
			return nil, err
		}
	} else {
		// Only a delta job has an ECO base.
		req.BaseHash, req.Delta = "", nil
	}
	if req.Netlist == nil {
		return nil, fmt.Errorf("jobs: nil netlist")
	}
	if err := spectral.ValidateNetlist(req.Netlist); err != nil {
		return nil, err
	}
	if req.Kind == KindOrder {
		// MELO clamps d to the module count, so an order job admits any
		// d >= 0 where Options.Validate would reject d > n.
		req.Opts = spectral.Options{D: req.Opts.D, Scheme: req.Opts.Scheme}
		if req.Opts.Scheme < 0 || req.Opts.Scheme > 3 {
			return nil, fmt.Errorf("jobs: scheme = %d, want 0..3", req.Opts.Scheme)
		}
		if req.Opts.D < 0 {
			return nil, fmt.Errorf("jobs: d = %d, want >= 0", req.Opts.D)
		}
	} else if err := req.Opts.Validate(req.Netlist); err != nil {
		return nil, err
	}
	if req.Hash == "" {
		req.Hash = speccache.Fingerprint(req.Netlist)
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrShuttingDown
	}

	// Admission control: under sustained pressure, degrade the job to a
	// cheaper decomposition or reject it outright (see overload.go).
	var shedFromD int
	if p.shed.observe(len(p.queue)) {
		switch p.cfg.ShedPolicy {
		case ShedReject:
			p.rejected++
			p.mu.Unlock()
			p.shed.noteRejected()
			return nil, ErrQueueFull
		case ShedDegrade:
			req, shedFromD = degradeRequest(req)
			if shedFromD != 0 {
				p.shed.noteDegraded()
			}
		}
	}

	p.seq++
	ctx, cancel := p.jobContext(req)
	now := time.Now()
	j := &Job{
		id:        fmt.Sprintf("job-%06d", p.seq),
		req:       req,
		ctx:       ctx,
		cancel:    cancel,
		shedFromD: shedFromD,
		state:     Pending,
		created:   now,
		enqueued:  now,
		done:      make(chan struct{}),
	}
	select {
	case p.queue <- j:
		p.jobs[j.id] = j
		p.order = append(p.order, j.id)
		p.submitted++
		p.retainLocked()
	default:
		cancel()
		p.rejected++
		p.mu.Unlock()
		return nil, ErrQueueFull
	}
	p.mu.Unlock()

	// Store a delta job's mutant and journal the job outside the pool
	// lock: the durable appends fsync, and an fsync must never serialize
	// submissions behind it. On failure the job was not durably
	// accepted, so retract it entirely: the cancel makes whichever
	// worker dequeues it retire it immediately, and removing it from the
	// maps keeps a job the client was told failed out of the jobs API
	// and out of compaction snapshots.
	var err error
	if req.Kind == KindDelta {
		_, err = p.AddNetlist(baseName, req.Netlist)
	}
	if err == nil {
		err = p.journalSubmit(j, req)
	}
	if err != nil {
		j.cancel()
		p.mu.Lock()
		delete(p.jobs, j.id)
		for i := len(p.order) - 1; i >= 0; i-- {
			if p.order[i] == j.id {
				p.order = append(p.order[:i], p.order[i+1:]...)
				break
			}
		}
		p.submitted--
		p.mu.Unlock()
		return nil, err
	}
	return j, nil
}

// resolveDelta turns a delta request into the job's netlist: it looks
// the base up by hash and applies the delta. It returns the base's name,
// under which Submit stores the result once the job is admitted.
func (p *Pool) resolveDelta(req *Request) (string, error) {
	base, info, ok := p.Netlist(req.BaseHash)
	if !ok {
		return "", fmt.Errorf("%w %q", ErrUnknownNetlist, req.BaseHash)
	}
	mut, reach, err := applyDelta(base, req.Delta)
	if err != nil {
		return "", err
	}
	req.Netlist, req.Hash, req.base, req.reach = mut, speccache.Fingerprint(mut), base, reach
	return info.Name, nil
}

// applyDelta is the one place an ECO delta meets its base, for a new
// job and for a replayed one alike. delta.Apply keeps the module
// population fixed, so the result is a valid netlist of the base's size.
// A missing delta is refused as a malformed request, not ErrBadDelta.
func applyDelta(base *spectral.Netlist, d *delta.Delta) (*spectral.Netlist, *delta.Reach, error) {
	if d == nil {
		return nil, nil, errors.New("jobs: delta job without a delta")
	}
	mut, reach, err := delta.Apply(base, d)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	return mut, &reach, nil
}

// jobContext derives a job's context from the pool's base context,
// anchoring the request deadline (which covers queue wait) at
// submission time.
func (p *Pool) jobContext(req Request) (context.Context, context.CancelFunc) {
	if req.Timeout > 0 {
		return context.WithTimeout(p.baseCtx, req.Timeout)
	}
	return context.WithCancel(p.baseCtx)
}

// degradeRequest lowers the eigenvector count of a sheddable request,
// returning the possibly-modified request and the defaulted d it would
// have used (0 when nothing changed). Only a method whose decomposition
// shrinks with d sheds: a method that takes no spectrum, or a fixed-size
// one (SB, KP, SFC, HL, recbis, trivec), passes through untouched.
func degradeRequest(req Request) (Request, int) {
	spec := req.Opts.SpectrumSpec()
	nd, ok := degradeD(spec.D)
	if !spec.Needed || !ok {
		return req, 0
	}
	lowered := req
	lowered.Opts.D = nd
	if lowered.Opts.SpectrumSpec().D >= spec.D {
		return req, 0
	}
	return lowered, spec.D
}

// retainLocked forgets the oldest finished jobs beyond MaxJobs. Pending
// and running jobs are never forgotten.
func (p *Pool) retainLocked() {
	excess := len(p.jobs) - p.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := p.order[:0]
	for _, id := range p.order {
		j := p.jobs[id]
		if excess > 0 && j != nil && isTerminal(j.State()) {
			delete(p.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	p.order = kept
}

func isTerminal(s State) bool { return s == Done || s == Failed || s == Cancelled }

// Job returns a tracked job by ID.
func (p *Pool) Job(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// Jobs returns status snapshots of all tracked jobs, oldest first.
func (p *Pool) Jobs() []Status {
	p.mu.Lock()
	ids := append([]string(nil), p.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := p.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	p.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests cancellation of a job. It returns false if the job is
// unknown or already finished.
func (p *Pool) Cancel(id string) bool {
	j, ok := p.Job(id)
	if !ok || isTerminal(j.State()) {
		return false
	}
	// Buffered, not durable: losing a cancel record across a crash only
	// re-runs a job the client no longer wants — wasteful, not wrong.
	p.appendJournal(journal.Record{Type: journal.TypeCancel, ID: id, UnixNS: time.Now().UnixNano()})
	j.cancel()
	return true
}

// Shutdown stops accepting work and waits for the queue to drain. If
// ctx expires first, all pending and running jobs are cancelled and
// Shutdown waits for the workers to acknowledge. The spectrum cache
// survives until the pool is garbage collected; the pool cannot be
// restarted.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	if !already {
		close(p.queue)
	}
	p.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		p.baseCancel() // cancel running and queued jobs
		// Workers may be stuck in long solves that take time to observe
		// the cancellation, leaving queued jobs no worker will retire
		// before Shutdown must return. Drain them here: the queue channel
		// is closed, so this range terminates, and channel semantics
		// guarantee each job is retired exactly once (either by a worker
		// or by this loop).
		for j := range p.queue {
			st := j.finish(nil, context.Canceled, true, time.Now())
			j.cancel()
			p.journalFinish(j, st, nil, context.Canceled)
		}
		<-drained
	}
	p.baseCancel()
	return err
}

// Stats returns a snapshot of the pool's counters for /metrics.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	s := Stats{
		Submitted:         p.submitted,
		Rejected:          p.rejected,
		QueueDepth:        len(p.queue),
		QueueCapacity:     p.cfg.QueueDepth,
		Workers:           p.cfg.Workers,
		QueueWait:         p.waitAgg,
		Spectrum:          p.specAgg,
		Solve:             p.solveAgg,
		Computed:          p.computed.Load(),
		WarmAccepted:      p.warmAccepted.Load(),
		WarmSeeded:        p.warmSeeded.Load(),
		WarmRejected:      p.warmRejected.Load(),
		JournalErrors:     p.journalErrors,
		Panics:            p.panics,
		Shed:              p.shed.stats(),
		RetryAfterSeconds: RetryAfter(len(p.queue), p.cfg.Workers, p.lat.p50()).Seconds(),
	}
	jobs := make([]*Job, 0, len(p.jobs))
	for _, j := range p.jobs {
		jobs = append(jobs, j)
	}
	p.mu.Unlock()
	for _, j := range jobs {
		switch j.State() {
		case Pending:
			s.Pending++
		case Running:
			s.Running++
		case Done:
			s.Done++
		case Failed:
			s.Failed++
		case Cancelled:
			s.Cancelled++
		}
	}
	s.Cache = p.cache.Stats()
	return s
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.execute(j)
	}
}

func (p *Pool) execute(j *Job) {
	now := time.Now()
	if err := j.ctx.Err(); err != nil {
		// Cancelled, deadline-expired, or the pool shut down while
		// queued. A blown deadline is a failure, not a cancellation: the
		// client asked for the work, the daemon ran out of time.
		st := j.finish(nil, err, errors.Is(err, context.Canceled), now)
		j.cancel() // release the deadline timer, if any
		p.journalFinish(j, st, nil, err)
		return
	}
	if w := p.cfg.MaxQueueWait; w > 0 && now.Sub(j.enqueued) > w {
		err := fmt.Errorf("jobs: queued %v, exceeding max queue wait %v", now.Sub(j.enqueued).Round(time.Millisecond), w)
		st := j.finish(nil, err, false, now)
		j.cancel()
		p.journalFinish(j, st, nil, err)
		if p.tracer != nil {
			p.tracer.Add("jobs.queue-wait-exceeded", 1)
		}
		return
	}
	ctx := j.ctx
	if p.tracer != nil {
		ctx = trace.WithTracer(ctx, p.tracer)
	}
	ctx, jspan := trace.Start(ctx, "job",
		trace.Str("job", j.id), trace.Str("kind", string(j.req.Kind)), trace.Str("method", j.req.Opts.Method.String()))
	// The queue wait already happened; record it retroactively as the
	// job's first child so queue-wait vs run time splits per trace.
	_, qspan := trace.StartAt(ctx, "job.queue", j.created)
	qspan.End()
	j.markStarted(now)
	p.appendJournal(journal.Record{Type: journal.TypeStart, ID: j.id, UnixNS: now.UnixNano()})
	rctx, rspan := trace.Start(ctx, "job.run")
	res, err := p.runJobIsolated(rctx, j)
	rspan.End()
	p.lat.add(time.Since(now))
	cancelled := err != nil && resilience.IsContextError(err) && !errors.Is(err, context.DeadlineExceeded)
	if err != nil {
		jspan.Annotate(trace.Str("error", err.Error()))
	}
	jspan.End()
	// Aggregate the stage times before finish wakes Done waiters, so a
	// caller woken by Done reads Stats that already count this job.
	p.mu.Lock()
	j.mu.Lock()
	p.waitAgg.Count++
	p.waitAgg.TotalSeconds += j.queueDur.Seconds()
	p.specAgg.Count++
	p.specAgg.TotalSeconds += j.spectrumDur.Seconds()
	p.solveAgg.Count++
	p.solveAgg.TotalSeconds += j.solveDur.Seconds()
	j.mu.Unlock()
	p.mu.Unlock()
	st := j.finish(res, err, cancelled, time.Now())
	j.cancel()
	p.journalFinish(j, st, res, err)
}

// runJobIsolated runs the job's work with panic isolation: a panic that
// escapes the pipeline (the façade recovers its own, but test seams and
// future kinds may not) fails the job instead of killing the worker —
// one poisoned job must not take down the daemon's capacity.
func (p *Pool) runJobIsolated(ctx context.Context, j *Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("jobs: job %s panicked: %v\n%s", j.id, r, debug.Stack())
			p.mu.Lock()
			p.panics++
			p.mu.Unlock()
			if p.tracer != nil {
				p.tracer.Add("jobs.panics", 1)
			}
		}
	}()
	return p.runFn(ctx, j)
}

// run executes one job through the façade with spectrum reuse. Every
// kind fetches its spectrum through the tier ladder and solves on it; an
// order job stops at MELO's ordering, a partition job splits it.
//
// A delta job partitions the mutated netlist with an eigensolve
// warm-started from the base netlist's spectrum, then compares the
// result against the base partition. The base spectrum is resolved
// through the same ladder (an ECO against a netlist the daemon just
// partitioned finds it in the LRU; a cold daemon computes it). The
// mutated netlist's spectrum is cached under its own fingerprint, so a
// repeated delta submission is a pure cache hit and solves nothing.
//
// The base partition is a pure function of the base's content and the
// job's options, the same for every delta of an ECO session, so it is
// computed once: the base's netlist store entry memoizes it, keyed by
// the full spectral.Options value (see netEntry). The store's
// MaxNetlists bounds it and eviction drops it with its netlist; there is
// no knob. It is not journaled, because a restarted pool recomputes it
// on its first delta and gets the same bits, so replay is unchanged.
func (p *Pool) run(ctx context.Context, j *Job) (*Result, error) {
	req := j.req
	isDelta := req.Kind == KindDelta
	res := &Result{}
	if isDelta {
		res.BaseHash, res.WarmStart, res.Reach = req.BaseHash, spectral.WarmOutcomeCold, req.reach
	}

	var sp, baseSp *spectral.Spectrum
	if spec := req.Opts.SpectrumSpec(); spec.Needed {
		t := time.Now()
		var (
			warm *spectral.WarmInfo
			err  error
		)
		if isDelta {
			if baseSp, _, err = p.fetch(ctx, newSpecReq(req.base, req.BaseHash, spec), nil, nil); err != nil {
				j.recordSpectrum(time.Since(t))
				return nil, fmt.Errorf("jobs: base spectrum: %w", err)
			}
			warm = &spectral.WarmInfo{}
		}
		sp, res.SpectrumCacheHit, err = p.fetch(ctx, newSpecReq(req.Netlist, req.Hash, spec), baseSp, warm)
		j.recordSpectrum(time.Since(t))
		if err != nil {
			return nil, err
		}
		if isDelta {
			if res.SpectrumCacheHit {
				// Served from a cache tier: no eigensolve ran, so there was
				// no warm-start event to classify.
				res.WarmStart = "cached"
			} else if warm.Outcome != "" {
				res.WarmStart = warm.Outcome
			}
		}
	}

	t := time.Now()
	defer func() { j.recordSolve(time.Since(t)) }()
	if req.Kind == KindOrder {
		order, err := spectral.OrderModulesWithSpectrum(ctx, req.Netlist, sp, req.Opts.D, req.Opts.Scheme)
		if err != nil {
			return nil, err
		}
		res.Order = order
		return res, nil
	}
	part, err := spectral.PartitionWithSpectrum(ctx, req.Netlist, sp, req.Opts)
	if err != nil {
		return nil, err
	}
	res.Assign, res.K = packLabels(part.Assign), part.K
	res.NetCut = spectral.NetCut(req.Netlist, part)
	res.ScaledCost = spectral.ScaledCost(req.Netlist, part)
	if !isDelta {
		return res, nil
	}

	// Stability report: align labels against the base partition, from
	// the memo or partitioned with the base's (already resolved)
	// spectrum. A base-side failure degrades the report — the delta
	// partition above is the job's answer and stands — and is never
	// memoized.
	basePart, hit := p.stabilityBase(req.BaseHash, req.Opts)
	if p.tracer != nil {
		counter := "jobs.stability_base.misses"
		if hit {
			counter = "jobs.stability_base.hits"
		}
		p.tracer.Add(counter, 1)
	}
	if !hit {
		var berr error
		if basePart, berr = spectral.PartitionWithSpectrum(ctx, req.base, baseSp, req.Opts); berr != nil {
			if resilience.IsContextError(berr) {
				return nil, berr
			}
			return res, nil
		}
		// Workers that miss together compute the same bits, so the later
		// fill rewrites an equal value: no singleflight is needed.
		p.memoizeStabilityBase(req.BaseHash, req.Opts, basePart)
	}
	if st, err := spectral.PartitionStability(req.base, req.Netlist, basePart, part); err == nil {
		res.Stability = st
	}
	return res, nil
}

// noteWarm counts a warm-start outcome for Stats.
func (p *Pool) noteWarm(outcome string) {
	switch outcome {
	case spectral.WarmOutcomeAccepted:
		p.warmAccepted.Add(1)
	case spectral.WarmOutcomeSeeded:
		p.warmSeeded.Add(1)
	case spectral.WarmOutcomeRejected:
		p.warmRejected.Add(1)
	}
}

// specReq names one decomposition a job needs: the netlist, its cache
// key, the clique model, and the eigenpair count (d+1, clamped to the
// module count).
type specReq struct {
	h     *spectral.Netlist
	key   speccache.Key
	model spectral.Model
	pairs int
}

func newSpecReq(h *spectral.Netlist, hash string, spec spectral.SpectrumSpec) specReq {
	return specReq{
		h:     h,
		key:   speccache.Key{Hash: hash, Model: spec.Model.String()},
		model: spec.Model,
		pairs: min(spec.D+1, h.NumModules()),
	}
}

// fetch resolves r through the spectrum cache's tier ladder (see
// speccache.Cache.Spectrum). The reported hit covers every tier but
// the eigensolve: callers learn whether the job skipped its O(d·n²)
// compute, not which tier paid.
//
// The solve runs under the pool's base context, not the caller's:
// cancelling one job must not poison the shared fetch other jobs may be
// waiting on; pool shutdown still aborts it. Every solve goes through
// the warm-start entry; a nil seed is a plain cold solve. When warm is
// non-nil the outcome lands in *warm (a nil seed reports "cold"); a
// tier hit leaves *warm untouched, since nothing was solved.
func (p *Pool) fetch(ctx context.Context, r specReq, seed *spectral.Spectrum, warm *spectral.WarmInfo) (*spectral.Spectrum, bool, error) {
	computed := false
	sp, err := p.cache.Spectrum(ctx, r.h, r.key, r.pairs, func(cctx context.Context, pairs int) (*spectral.Spectrum, error) {
		// Detach from the caller's cancellation but keep its trace: the
		// decompose spans nest under this job's cache.lookup span even
		// though the solve outlives the job on purpose.
		dctx := trace.Adopt(p.baseCtx, cctx)
		sp, wi, err := spectral.DecomposeWarmCtxPolicy(dctx, r.h, r.model, pairs-1, seed, p.cfg.EigenPolicy)
		if err != nil {
			return nil, err
		}
		if warm != nil {
			*warm = wi
			p.noteWarm(wi.Outcome)
		}
		computed = true
		p.computed.Add(1)
		return sp, nil
	})
	if err != nil {
		return nil, false, err
	}
	if computed {
		// Warm-restart hint: after a crash, replay prewarms this
		// decomposition so the cache recovers along with the queue.
		p.appendJournal(journal.Record{
			Type: journal.TypeSpectrum, Hash: r.key.Hash, Model: r.key.Model,
			Pairs: sp.Pairs(), UnixNS: time.Now().UnixNano(),
		})
	}
	return sp, !computed, nil
}
