package jobs

import (
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
	// in-memory LRU: cache misses consult it before computing, computed
	// entries are written through to it, and LRU evictions spill into
	// it. The pool does not close it. Default nil (no persistence).
	Store specstore.Store
	// DisableWarmStart makes KindDelta jobs solve cold instead of
	// seeding the eigensolve from the base netlist's cached spectrum.
	// Escape hatch and A/B lever; warm results are bit-checked against
	// cold in tests, so the default is on. Default false (warm starts
	// enabled).
	DisableWarmStart bool
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
	// — as opposed to serving from the LRU, the persistent store
	// (StoreHits) or a shard peer (RemoteHits). A warm restart against
	// a populated store should leave Computed at zero.
	Computed, StoreHits, RemoteHits uint64
	// Warm* count KindDelta eigensolves by warm-start outcome (see
	// spectral.WarmInfo): Accepted refreshed the base spectrum without
	// solving, Seeded started Lanczos from it, Rejected fell back to a
	// cold solve after the seed failed its checks, Cold never attempted
	// the seed (warm starts disabled, or no usable base spectrum).
	WarmAccepted, WarmSeeded, WarmRejected, WarmCold uint64
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

	// remote, when set via SetRemote before Start, proxies spectrum
	// lookups to the shard peer owning the fingerprint.
	remote RemoteSpectrum

	// Spectrum tier counters (see Stats). Atomic because they are
	// updated from compute closures that run outside the pool lock.
	computed     atomic.Uint64
	storeHits    atomic.Uint64
	remoteHits   atomic.Uint64
	warmAccepted atomic.Uint64
	warmSeeded   atomic.Uint64
	warmRejected atomic.Uint64
	warmCold     atomic.Uint64

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
	snapshotExtra func() []journal.Record
	waitAgg       StageStats
	specAgg       StageStats
	solveAgg      StageStats
}

// NewPool creates a stopped pool; call Start to launch the workers.
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		cfg:        cfg,
		cache:      speccache.New(cfg.CacheEntries),
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		jnl:        cfg.Journal,
		shed:       newShedder(cfg.ShedPolicy, cfg.QueueDepth),
	}
	p.runFn = p.run
	if cfg.Store != nil {
		// Spill LRU evictions to the persistent tier so capacity pressure
		// demotes decompositions instead of destroying them.
		p.cache.SetOnEvict(func(key speccache.Key, e speccache.Entry) {
			if sp, ok := e.Value.(*spectral.Spectrum); ok && !cfg.Store.Has(specstore.Key(key), e.Pairs) {
				p.writeThrough(key, sp, false)
			}
		})
	}
	return p
}

// Start launches the worker goroutines.
func (p *Pool) Start() {
	for i := 0; i < p.cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
}

// Cache exposes the spectrum cache (for metrics).
func (p *Pool) Cache() *speccache.Cache { return p.cache }

// Store exposes the persistent spectrum tier (nil when unconfigured),
// for metrics.
func (p *Pool) Store() specstore.Store { return p.cfg.Store }

// SetRemote attaches a shard-peer spectrum fetcher. Call before Start;
// a nil remote (the default) keeps all spectrum work local.
func (p *Pool) SetRemote(r RemoteSpectrum) { p.remote = r }

// RemoteSpectrum proxies spectrum traffic to the shard peer owning a
// fingerprint. Implementations return ok == false (not an error) when
// the key is owned locally, the peer misses, or the peer is down — the
// pool then computes locally, so a dead peer degrades throughput, never
// availability.
type RemoteSpectrum interface {
	// Fetch retrieves an encoded spectrum (EncodeSpectrum format) with
	// capacity >= pairs for (hash, model) from the owning peer.
	Fetch(ctx context.Context, hash, model string, pairs int) (data []byte, ok bool, err error)
	// Offer pushes a locally computed spectrum toward the owning peer,
	// best-effort, so the shard's owner converges on holding its keys.
	Offer(hash, model string, pairs int, data []byte)
}

// SetTracer attaches a tracer to the pool's job executions. Call before
// Start; a nil tracer (the default) leaves jobs untraced.
func (p *Pool) SetTracer(t *trace.Tracer) { p.tracer = t }

// Submit validates and enqueues a request. It never blocks: a full
// queue returns ErrQueueFull, a shut-down pool ErrShuttingDown. On a
// durable pool the job is journaled before Submit returns — an error
// wrapping ErrJournal means the job was not durably accepted and the
// caller must not acknowledge it.
func (p *Pool) Submit(req Request) (*Job, error) {
	if req.Netlist == nil {
		return nil, fmt.Errorf("jobs: nil netlist")
	}
	if req.Kind == "" {
		req.Kind = KindPartition
	}
	if !req.Kind.known() {
		return nil, fmt.Errorf("jobs: unknown kind %q", req.Kind)
	}
	if err := spectral.ValidateNetlist(req.Netlist); err != nil {
		return nil, err
	}
	if req.Kind != KindDelta {
		// Only a delta job has an ECO base.
		req.BaseHash, req.BaseNetlist, req.Delta = "", nil, nil
	} else {
		if req.BaseNetlist == nil {
			return nil, fmt.Errorf("jobs: delta job without a base netlist")
		}
		if err := spectral.ValidateNetlist(req.BaseNetlist); err != nil {
			return nil, fmt.Errorf("jobs: base netlist: %w", err)
		}
		if req.BaseNetlist.NumModules() != req.Netlist.NumModules() {
			return nil, fmt.Errorf("jobs: delta netlist has %d modules, base has %d — ECO deltas preserve the module population",
				req.Netlist.NumModules(), req.BaseNetlist.NumModules())
		}
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
	if req.BaseNetlist != nil && req.BaseHash == "" {
		req.BaseHash = speccache.Fingerprint(req.BaseNetlist)
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

	// Journal outside the pool lock: the durable append fsyncs, and an
	// fsync must never serialize submissions behind it. On failure the
	// job was not durably accepted, so retract it entirely: the cancel
	// makes whichever worker dequeues it retire it immediately, and
	// removing it from the maps keeps a job the client was told failed
	// out of the jobs API and out of compaction snapshots.
	if err := p.journalSubmit(j); err != nil {
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
		StoreHits:         p.storeHits.Load(),
		RemoteHits:        p.remoteHits.Load(),
		WarmAccepted:      p.warmAccepted.Load(),
		WarmSeeded:        p.warmSeeded.Load(),
		WarmRejected:      p.warmRejected.Load(),
		WarmCold:          p.warmCold.Load(),
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
// partitioned finds it in the LRU; a cold daemon computes it — the
// stability report's base partition needs it regardless). The mutated
// netlist's spectrum is cached under its own fingerprint, so a repeated
// delta submission is a pure cache hit and solves nothing.
func (p *Pool) run(ctx context.Context, j *Job) (*Result, error) {
	req := j.req
	isDelta := req.Kind == KindDelta
	res := &Result{}
	if isDelta {
		res.BaseHash, res.WarmStart = req.BaseHash, spectral.WarmOutcomeCold
		if req.Delta != nil && req.BaseNetlist != nil {
			// Re-derive the perturbation reach from the journaled delta;
			// Apply on an already-validated delta is O(nets) and
			// deterministic.
			if _, reach, err := delta.Apply(req.BaseNetlist, req.Delta); err == nil {
				res.Reach = &reach
			}
		}
	}

	var sp, baseSp *spectral.Spectrum
	if spec := req.Opts.SpectrumSpec(); spec.Needed {
		t := time.Now()
		var (
			seed *spectral.Spectrum
			warm *spectral.WarmInfo
			err  error
		)
		if isDelta {
			if baseSp, _, err = p.fetch(ctx, newSpecReq(req.BaseNetlist, req.BaseHash, spec), true, nil, nil); err != nil {
				j.recordSpectrum(time.Since(t))
				return nil, fmt.Errorf("jobs: base spectrum: %w", err)
			}
			if !p.cfg.DisableWarmStart {
				seed = baseSp
			}
			warm = &spectral.WarmInfo{}
		}
		sp, res.SpectrumCacheHit, err = p.fetch(ctx, newSpecReq(req.Netlist, req.Hash, spec), true, seed, warm)
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

	// Stability report: partition the base with its (already resolved)
	// spectrum and align labels. A base-side failure degrades the report
	// — the delta partition above is the job's answer and stands.
	if basePart, berr := spectral.PartitionWithSpectrum(ctx, req.BaseNetlist, baseSp, req.Opts); berr == nil {
		if st, serr := spectral.PartitionStability(req.BaseNetlist, req.Netlist, basePart, part); serr == nil {
			res.Stability = st
		}
	} else if resilience.IsContextError(berr) {
		return nil, berr
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
	default:
		p.warmCold.Add(1)
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

// fetch resolves r through the tier ladder: in-memory LRU, persistent
// store, shard peer (when remote), then a local eigensolve. The cache's
// singleflight wraps the whole ladder, so concurrent requests for one
// key walk it once, sized to the largest of them. The reported hit
// covers every tier but the eigensolve: callers learn whether the job
// skipped its O(d·n²) compute, not which tier paid.
//
// The compute itself runs under the pool's base context, not the
// caller's: cancelling one job must not poison the shared fetch other
// jobs may be waiting on; pool shutdown still aborts it. Every compute
// goes through the warm-start entry; a nil seed is a plain cold solve.
// When warm is non-nil the outcome lands in *warm (a nil seed reports
// "cold"); a tier hit leaves *warm untouched, since nothing was solved.
func (p *Pool) fetch(ctx context.Context, r specReq, remote bool, seed *spectral.Spectrum, warm *spectral.WarmInfo) (*spectral.Spectrum, bool, error) {
	computed := false
	entry, _, err := p.cache.GetOrCompute(ctx, r.key, r.pairs, func(cctx context.Context, pairs int) (speccache.Entry, error) {
		tr := trace.FromContext(cctx)
		if p.cfg.Store != nil {
			if e, ok, err := p.cfg.Store.Get(specstore.Key(r.key)); err == nil && ok && e.Pairs >= pairs {
				if sp, err := decodeSpectrum(e.Data, r.h, pairs); err == nil {
					p.storeHits.Add(1)
					tr.Add("specstore.tier-hits", 1)
					return speccache.Entry{Value: sp, Pairs: sp.Pairs()}, nil
				}
			}
		}
		if remote && p.remote != nil {
			if data, ok, err := p.remote.Fetch(cctx, r.key.Hash, r.key.Model, pairs); err == nil && ok {
				if sp, err := decodeSpectrum(data, r.h, pairs); err == nil {
					p.remoteHits.Add(1)
					tr.Add("shard.remote-hits", 1)
					return speccache.Entry{Value: sp, Pairs: sp.Pairs()}, nil
				}
			}
		}
		// Detach from the caller's cancellation but keep its trace: the
		// decompose spans nest under this job's cache.lookup span even
		// though the compute outlives the job on purpose.
		dctx := trace.Adopt(p.baseCtx, cctx)
		sp, wi, err := spectral.DecomposeWarmCtxPolicy(dctx, r.h, r.model, pairs-1, seed, p.cfg.EigenPolicy)
		if err != nil {
			return speccache.Entry{}, err
		}
		if warm != nil {
			*warm = wi
			p.noteWarm(wi.Outcome)
		}
		computed = true
		p.computed.Add(1)
		p.writeThrough(r.key, sp, remote)
		return speccache.Entry{Value: sp, Pairs: sp.Pairs()}, nil
	})
	if err != nil {
		return nil, false, err
	}
	if computed {
		// Warm-restart hint: after a crash, replay prewarms this
		// decomposition so the cache recovers along with the queue.
		p.appendJournal(journal.Record{
			Type: journal.TypeSpectrum, Hash: r.key.Hash, Model: r.key.Model,
			Pairs: entry.Pairs, UnixNS: time.Now().UnixNano(),
		})
	}
	return entry.Value.(*spectral.Spectrum), !computed, nil
}

// decodeSpectrum decodes an encoded spectrum against h — which rejects
// a payload for any other netlist — and checks it holds at least pairs
// eigenpairs. Every byte tier (store, shard peer, adopted push) goes
// through it, so no payload reaches the LRU unvalidated.
func decodeSpectrum(data []byte, h *spectral.Netlist, pairs int) (*spectral.Spectrum, error) {
	sp, err := spectral.DecodeSpectrum(data, h)
	if err != nil {
		return nil, err
	}
	if sp.Pairs() < pairs {
		return nil, fmt.Errorf("payload holds %d pairs, want %d", sp.Pairs(), pairs)
	}
	return sp, nil
}

// writeThrough encodes sp once, puts it in the persistent store and,
// when offer is set, offers it to the shard peer owning its key. The
// compute path offers; an LRU eviction only demotes. Best-effort on
// both counts: persistence failures cost future recomputes, never
// correctness.
func (p *Pool) writeThrough(key speccache.Key, sp *spectral.Spectrum, offer bool) {
	offer = offer && p.remote != nil
	if p.cfg.Store == nil && !offer {
		return
	}
	data, err := spectral.EncodeSpectrum(sp)
	if err != nil {
		return
	}
	if p.cfg.Store != nil {
		_ = p.cfg.Store.Put(specstore.Key(key), specstore.Entry{Pairs: sp.Pairs(), Data: data})
	}
	if offer {
		p.remote.Offer(key.Hash, key.Model, sp.Pairs(), data)
	}
}

// SpectrumBytes serves a shard peer's lookup from the local tiers only
// — LRU, then store. It never proxies (so forwarding chains cannot
// loop) and never computes (so a lookup storm cannot schedule work on
// the owner; the requester falls back to its own compute and offers the
// result back).
func (p *Pool) SpectrumBytes(hash, model string, pairs int) ([]byte, int, bool) {
	if pairs < 1 {
		return nil, 0, false
	}
	key := speccache.Key{Hash: hash, Model: model}
	if e, ok := p.cache.Get(key, pairs); ok {
		if sp, isSp := e.Value.(*spectral.Spectrum); isSp {
			if data, err := spectral.EncodeSpectrum(sp); err == nil {
				return data, sp.Pairs(), true
			}
		}
	}
	if p.cfg.Store != nil {
		if e, ok, err := p.cfg.Store.Get(specstore.Key(key)); err == nil && ok && e.Pairs >= pairs {
			return e.Data, e.Pairs, true
		}
	}
	return nil, 0, false
}

// AdoptSpectrum accepts an encoded spectrum pushed by a shard peer.
// When the daemon holds a netlist matching the hash, the payload is
// decoded (and thereby validated) against it and seeded into the LRU;
// either way it lands in the persistent store, where a later Get
// re-validates it against the real netlist before use — a peer can
// waste our disk with garbage, but cannot poison an answer.
func (p *Pool) AdoptSpectrum(hash, model string, pairs int, data []byte, h *spectral.Netlist) error {
	if pairs < 1 || len(data) == 0 {
		return fmt.Errorf("jobs: adopt spectrum: empty payload")
	}
	key := speccache.Key{Hash: hash, Model: model}
	if h != nil {
		sp, err := decodeSpectrum(data, h, pairs)
		if err != nil {
			return fmt.Errorf("jobs: adopt spectrum: %w", err)
		}
		p.cache.Seed(key, speccache.Entry{Value: sp, Pairs: sp.Pairs()})
	}
	if p.cfg.Store != nil {
		return p.cfg.Store.Put(specstore.Key(key), specstore.Entry{Pairs: pairs, Data: data})
	}
	return nil
}
